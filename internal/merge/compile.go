package merge

import "vliwmt/internal/isa"

// This file is the merge compilation step of the simulator hot path
// (DESIGN.md): a Tree is flattened once, at Selector build time, into
// either a linear fold over its leaves or a post-order instruction
// array, and packed selection (SelectPacked) then runs without
// recursion, per-cycle interface dispatch through child nodes, or heap
// allocation.
//
// Shape detection is automatic. Left-deep trees — every input after a
// node's first is a leaf, and the first input chains down to a leaf —
// cover the paper's dominant shapes (all 3XYZ cascades, the flat
// parallel C<n>/CSMT nodes, the hybrid parallel-CSMT cascades like 2SC3
// and 4SC3C3C3) and fold into a per-leaf (port, kind) step list, because
// the greedy all-or-nothing merge visits their leaves in a fixed order
// with a fixed merge kind per leaf. Pure-CSMT folds get a specialized
// loop that tracks only the accumulated cluster mask. Everything else —
// the balanced 2XY trees, custom trees with interior non-first subtrees
// — runs on a small stack machine over a preallocated scratch buffer.

// evalKind identifies the specialized evaluator a compiled scheme uses.
type evalKind uint8

const (
	evalFold     evalKind = iota // left-deep, at least one SMT level
	evalFoldCSMT                 // left-deep, every merge level CSMT
	evalStack                    // general post-order stack program
	evalIMT                      // IMT baseline: the highest-priority candidate
	evalBMT                      // BMT baseline: the sticky running thread
)

// foldStep is one leaf visit of a linear fold: join the candidate at
// port into the accumulator under kind. The kind of the first
// accumulated step is irrelevant (it becomes the base packet).
type foldStep struct {
	port uint8
	kind Kind
}

// Stack-program opcodes. Leaves push the port's candidate (or the empty
// selection); merge opcodes fold the top n entries in input order.
const (
	opLeaf uint8 = iota
	opMergeSMT
	opMergeCSMT
)

type cinstr struct {
	op  uint8
	arg uint8 // opLeaf: port; opMerge*: input count
}

// Compiled is a scheme's production selector: a Tree flattened for fast
// selection, or one of the IMT/BMT baselines. It implements Selector,
// and SelectPacked selects bit-identically to the reference selector
// (enforced by the differential tests). The scratch stack and BMT's
// sticky port make an instance single-simulator state: build one per
// run via Scheme.Selector.
type Compiled struct {
	ref    Selector // reference selector: the *Tree, *IMT or *BMT
	bmt    *BMT     // evalBMT: ref itself, holding the sticky port
	kind   evalKind
	steps  []foldStep // fold evaluators
	prog   []cinstr   // evalStack program
	pstack []pentry   // evalStack scratch, len = max program depth
}

// Compile flattens t into its fastest evaluator form. The result selects
// exactly like t.Select.
func Compile(t *Tree) *Compiled {
	c := &Compiled{ref: t}
	if steps, ok := flattenFold(t.root, nil); ok {
		c.steps = steps
		c.kind = evalFoldCSMT
		for _, s := range steps[1:] {
			if s.kind == SMT {
				c.kind = evalFold
			}
		}
		return c
	}
	c.kind = evalStack
	var depth int
	c.prog, depth = compileStack(t.root)
	c.pstack = make([]pentry, depth)
	return c
}

// flattenFold linearizes a left-deep tree into fold steps: node n
// qualifies when all inputs after the first are leaves and the first
// input is a leaf or itself qualifies. Leaf j of a qualifying tree is
// always joined under the kind of the node that owns it, so the greedy
// recursive selection reduces to one ordered fold over the leaves.
func flattenFold(n *Node, steps []foldStep) ([]foldStep, bool) {
	for _, in := range n.Inputs[1:] {
		if in.Node != nil {
			return nil, false
		}
	}
	first := n.Inputs[0]
	if first.Node != nil {
		var ok bool
		if steps, ok = flattenFold(first.Node, steps); !ok {
			return nil, false
		}
	} else {
		steps = append(steps, foldStep{port: uint8(first.Port), kind: n.Kind})
	}
	for _, in := range n.Inputs[1:] {
		steps = append(steps, foldStep{port: uint8(in.Port), kind: n.Kind})
	}
	return steps, true
}

// compileStack emits the post-order program for an arbitrary tree and
// returns the program's maximum stack depth.
func compileStack(root *Node) ([]cinstr, int) {
	var prog []cinstr
	var emit func(n *Node)
	emit = func(n *Node) {
		for _, in := range n.Inputs {
			if in.Node != nil {
				emit(in.Node)
			} else {
				prog = append(prog, cinstr{op: opLeaf, arg: uint8(in.Port)})
			}
		}
		op := opMergeSMT
		if n.Kind == CSMT {
			op = opMergeCSMT
		}
		prog = append(prog, cinstr{op: op, arg: uint8(len(n.Inputs))})
	}
	emit(root)
	depth, maxDepth := 0, 0
	for _, ins := range prog {
		if ins.op == opLeaf {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		} else {
			depth -= int(ins.arg) - 1
		}
	}
	return prog, maxDepth
}

// Name implements Selector.
func (c *Compiled) Name() string { return c.ref.Name() }

// Ports implements Selector.
func (c *Compiled) Ports() int { return c.ref.Ports() }

// Select implements Selector by forwarding to the reference selector
// (sharing BMT's sticky port with SelectPacked). The simulator selects
// through SelectPacked; Select serves the Selector interface and
// callers holding occupancy values.
func (c *Compiled) Select(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection {
	return c.ref.Select(m, cands, valid)
}

package program_test

import (
	"testing"

	"vliwmt/internal/compiler"
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
	"vliwmt/internal/program"
	"vliwmt/internal/workload"
)

// planPrograms compiles a spread of real benchmarks (all ILP classes and
// memory behaviours) plus the synthetic kernels of the walker tests.
func planPrograms(t *testing.T) []*program.Program {
	t.Helper()
	var progs []*program.Program
	m := isa.Default()
	for _, n := range []string{"mcf", "blowfish", "g721encode", "djpeg", "x264", "colorspace"} {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Compile(m)
		if err != nil {
			t.Fatalf("compile %s: %v", n, err)
		}
		progs = append(progs, p)
	}
	progs = append(progs, loopKernel(t, 7))

	bld := ir.NewBuilder("bern")
	s := bld.Stream(ir.MemStream{Kind: ir.StreamRandom, Footprint: 1 << 12})
	bld.Block("body")
	bld.Load(s)
	bld.Store(s, bld.ALU())
	bld.Branch("body", ir.Bernoulli(0.3))
	bld.Block("tail")
	bld.ALU()
	p, err := compiler.Compile(bld.MustFinish(), compiler.Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	return append(progs, p)
}

// TestPlanShape checks the flat table's structural invariants against
// the source program: one entry per instruction, contiguous blocks,
// successor indices landing on block starts, and occupancy IDs that
// really are a dictionary (equal ID <=> equal occupancy value).
func TestPlanShape(t *testing.T) {
	for _, p := range planPrograms(t) {
		pl := program.NewPlan(p)
		if len(pl.Instrs) != p.NumInstructions() {
			t.Fatalf("%s: plan has %d instrs, program %d", p.Name, len(pl.Instrs), p.NumInstructions())
		}
		byID := map[int32]isa.Occupancy{}
		f := 0
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
			if pl.Start[bi] != int32(f) {
				t.Fatalf("%s: block %d starts at %d, want %d", p.Name, bi, pl.Start[bi], f)
			}
			for ii := range b.Instrs {
				pi := &pl.Instrs[f]
				if pi.Block != int32(bi) || pi.Occ != b.Instrs[ii].Occ || pi.Addr != b.Addrs[ii] || pi.Ops != int32(len(b.Instrs[ii].Ops)) {
					t.Fatalf("%s: flat %d does not mirror block %d instr %d", p.Name, f, bi, ii)
				}
				last := ii == len(b.Instrs)-1
				if pi.Last != last {
					t.Fatalf("%s: flat %d Last = %v", p.Name, f, pi.Last)
				}
				wantNext := int32(f + 1)
				if last {
					wantNext = pl.Start[b.Next]
				}
				if pi.Next != wantNext {
					t.Fatalf("%s: flat %d Next = %d, want %d", p.Name, f, pi.Next, wantNext)
				}
				if pi.Branch && pi.Target != pl.Start[b.BranchTarget] {
					t.Fatalf("%s: flat %d Target = %d", p.Name, f, pi.Target)
				}
				if got, ok := byID[pi.OccID]; ok && got != pi.Occ {
					t.Fatalf("%s: occupancy ID %d maps to two values", p.Name, pi.OccID)
				}
				byID[pi.OccID] = pi.Occ
				if int(pi.OccID) >= pl.NumOccs {
					t.Fatalf("%s: OccID %d out of range %d", p.Name, pi.OccID, pl.NumOccs)
				}
				f++
			}
		}
		if len(byID) != pl.NumOccs {
			t.Fatalf("%s: %d distinct IDs, NumOccs %d", p.Name, len(byID), pl.NumOccs)
		}
	}
}

// TestAdvanceMatchesRetire drives two same-seeded walkers over each
// program — one through Retire, one through StreamAddr and Advance —
// and requires identical memory accesses, branch outcomes, retire
// counts and fetch addresses at every step. This is the equivalence the
// simulator core rests on against refsim, which retires through
// Retire: the split path must consume the walker RNG in exactly
// Retire's draw order.
func TestAdvanceMatchesRetire(t *testing.T) {
	for _, p := range planPrograms(t) {
		pl := program.NewPlan(p)
		for _, seed := range []uint64{0, 1, 42} {
			wr := program.NewWalker(p, seed, 0x1000, 0x2000)
			wp := program.NewWalker(p, seed, 0x1000, 0x2000)
			f := int32(0)
			for step := 0; step < 5000; step++ {
				ri, rAddr := wr.Current()
				pi := &pl.Instrs[f]
				if pi.Addr+0x1000 != rAddr || pi.Occ != ri.Occ {
					t.Fatalf("%s seed %d step %d: plan position diverged", p.Name, seed, step)
				}
				info := wr.Retire()
				if len(pi.Mem) != len(info.Mem) || int(pi.Ops) != info.Ops {
					t.Fatalf("%s seed %d step %d: plan recipe diverged (mem %d/%d, ops %d/%d)",
						p.Name, seed, step, len(pi.Mem), len(info.Mem), pi.Ops, info.Ops)
				}
				for i := range pi.Mem {
					got := program.MemAccess{Addr: wp.StreamAddr(pi.Mem[i].Stream), Store: pi.Mem[i].Store}
					if got != info.Mem[i] {
						t.Fatalf("%s seed %d step %d: access %d diverged", p.Name, seed, step, i)
					}
				}
				next, taken := wp.Advance(pl, f)
				if taken != info.Taken {
					t.Fatalf("%s seed %d step %d: branch diverged (taken %v/%v)", p.Name, seed, step, taken, info.Taken)
				}
				if wp.Retired != wr.Retired {
					t.Fatalf("%s seed %d step %d: retired counters diverged", p.Name, seed, step)
				}
				// The plan-driven walker keeps block/idx coherent: its own
				// Current must agree with the flat successor.
				pin, pAddr := wp.Current()
				if pin.Occ != pl.Instrs[next].Occ || pAddr != pl.Instrs[next].Addr+0x1000 {
					t.Fatalf("%s seed %d step %d: walker position incoherent after Advance", p.Name, seed, step)
				}
				f = next
			}
		}
	}
}

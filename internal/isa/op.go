package isa

import "fmt"

// OpClass identifies the functional-unit class of a VLIW operation.
type OpClass uint8

const (
	// OpALU is an integer/logic operation executable at any issue slot.
	OpALU OpClass = iota
	// OpMul is a multiply executable only on a multiplier slot.
	OpMul
	// OpMem is a load or store executable only on the load/store slot.
	OpMem
	// OpBranch is a (conditional) branch, resolved on cluster 0.
	OpBranch
	// OpCopy is one half of an intercluster copy pair; it behaves as an
	// ALU operation for issue purposes.
	OpCopy
	// NumOpClasses is the number of distinct operation classes.
	NumOpClasses = iota
)

var opClassNames = [NumOpClasses]string{"alu", "mpy", "mem", "br", "copy"}

func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("opclass(%d)", uint8(c))
}

// ParseOpClass converts a mnemonic produced by OpClass.String back into the
// class value.
func ParseOpClass(s string) (OpClass, error) {
	for i, n := range opClassNames {
		if n == s {
			return OpClass(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown operation class %q", s)
}

// Op is a single operation inside a VLIW instruction. The fields beyond
// Class and Cluster are runtime behaviour hooks filled in by the compiler:
// they do not affect merging, only simulation events.
type Op struct {
	// Class is the functional-unit class.
	Class OpClass
	// Cluster is the cluster this operation issues on.
	Cluster uint8
	// Stream identifies, for OpMem, the address-stream generator feeding
	// this access; for OpBranch, the direction generator. Negative means
	// "no runtime behaviour" (e.g. plain ALU ops).
	Stream int16
	// IsStore marks OpMem stores (loads otherwise).
	IsStore bool
}

func (o Op) String() string {
	return fmt.Sprintf("%s.c%d", o.Class, o.Cluster)
}

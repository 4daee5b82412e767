package merge

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
)

// packDict converts a candidate set to the dictionary + id form
// SelectPacked consumes: every distinct candidate value becomes one
// dictionary entry (here simply one entry per port, which is a legal —
// if maximally redundant — dictionary).
func packDict(t testing.TB, vals []isa.Occupancy) ([]PackedOcc, []int32) {
	t.Helper()
	d := make([]PackedOcc, len(vals))
	ids := make([]int32, len(vals))
	for p := range vals {
		po, ok := PackOcc(&vals[p])
		if !ok {
			t.Fatalf("candidate %d unpackable: %+v", p, vals[p])
		}
		d[p] = po
		ids[p] = int32(p)
	}
	return d, ids
}

// checkPacked fails unless SelectPacked agrees with the reference
// selector ref on the selected mask and the merged packet's operation
// count — the two facts the simulator consumes.
func checkPacked(t testing.TB, c *Compiled, ref Selector, m *isa.Machine, vals []isa.Occupancy, valid uint32) {
	t.Helper()
	lim, ok := PackLimits(m)
	if !ok {
		t.Fatalf("machine unpackable: %+v", m)
	}
	d, ids := packDict(t, vals)
	want := ref.Select(m, vals, valid)
	mask, ops := c.SelectPacked(d, &lim, ids, valid)
	if mask != want.Mask || ops != want.Occ.Ops {
		t.Fatalf("%s on %+v: packed (mask %04b, ops %d) != reference (mask %04b, ops %d), valid %04b",
			c.Name(), *m, mask, ops, want.Mask, want.Occ.Ops, valid)
	}
}

// TestSelectPackedMatchesSelect is the packed-path differential: on the
// paper's schemes plus random trees, random machines and random
// candidate sets, SelectPacked must agree with Tree.Select.
func TestSelectPackedMatchesSelect(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	machines := []isa.Machine{isa.Default()}
	for i := 0; i < 4; i++ {
		m := isa.Default()
		m.Clusters = 1 + r.Intn(isa.MaxClusters)
		m.IssueWidth = 1 + r.Intn(8)
		m.Muls = 1 + r.Intn(4)
		m.MemUnits = 1 + r.Intn(4)
		m.BranchClusters = r.Intn(m.Clusters + 1)
		machines = append(machines, m)
	}
	for _, name := range []string{"3SSS", "3CCC", "C4", "C8", "2SC3", "3SCC", "2C3S", "2SS", "2CC", "2CS", "2SC", "1S"} {
		ports := 4
		if name == "C8" {
			ports = 8
		}
		if name == "1S" {
			ports = 2
		}
		tree := mustParse(t, name, ports)
		c := Compile(tree)
		for _, m := range machines {
			mm := m
			for i := 0; i < 60; i++ {
				vals, valid := pack(randomCands(r, &mm, ports))
				checkPacked(t, c, tree, &mm, vals, valid)
			}
		}
	}

	// Random trees exercise the stack evaluator's nested merges.
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(7)
		tree := randomTree(r, n)
		c := Compile(tree)
		for _, m := range machines {
			mm := m
			for i := 0; i < 15; i++ {
				vals, valid := pack(randomCands(r, &mm, n))
				checkPacked(t, c, tree, &mm, vals, valid)
			}
		}
	}

	// The baselines run a candidate sequence each, compared cycle by
	// cycle with a separate reference instance fed the same sequence,
	// so BMT's sticky port is checked too. Empty and lone-candidate
	// cycles (SelectPacked's shortcut) are mixed in.
	m := isa.Default()
	for _, name := range []string{"IMT", "BMT"} {
		s, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for ports := 2; ports <= 8; ports++ {
			c, err := s.Selector(ports)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := s.ReferenceSelector(ports)
			if err != nil {
				t.Fatal(err)
			}
			var empty, lone int
			for i := 0; i < 200; i++ {
				cands := randomCands(r, &m, ports)
				switch r.Intn(6) {
				case 0:
					clear(cands)
				case 1:
					p := r.Intn(ports)
					if cands[p] == nil {
						cands[p] = occOn(r.Intn(m.Clusters))
					}
					for q := range cands {
						if q != p {
							cands[q] = nil
						}
					}
				}
				vals, valid := pack(cands)
				switch {
				case valid == 0:
					empty++
				case valid&(valid-1) == 0:
					lone++
				}
				checkPacked(t, c, ref, &m, vals, valid)
			}
			if empty == 0 || lone == 0 {
				t.Fatalf("%s/%d ports: sequence has %d empty and %d lone-candidate cycles, want both", name, ports, empty, lone)
			}
		}
	}
}

// TestPackOccRoundTrip pins the packed encoding: per-cluster counts land
// in the right bytes, the cluster mask matches ClusterMask, and
// over-limit counts are rejected.
func TestPackOccRoundTrip(t *testing.T) {
	var o isa.Occupancy
	o.Clusters[0] = isa.ClusterUse{Total: 3, Mul: 1, Mem: 2, Branch: 0}
	o.Clusters[3] = isa.ClusterUse{Total: 5, Mul: 0, Mem: 0, Branch: 1}
	o.Ops = 8
	p, ok := PackOcc(&o)
	if !ok {
		t.Fatal("packable occupancy rejected")
	}
	if got := uint8(p.T >> 24); got != 5 {
		t.Errorf("cluster 3 total byte = %d, want 5", got)
	}
	if got := uint8(p.L); got != 2 {
		t.Errorf("cluster 0 mem byte = %d, want 2", got)
	}
	if got := uint8(p.B >> 24); got != 1 {
		t.Errorf("cluster 3 branch byte = %d, want 1", got)
	}
	if p.CM != o.ClusterMask() {
		t.Errorf("CM = %08b, want ClusterMask %08b", p.CM, o.ClusterMask())
	}
	if p.Ops != 8 {
		t.Errorf("Ops = %d, want 8", p.Ops)
	}

	o.Clusters[1].Total = packMax + 1
	if _, ok := PackOcc(&o); ok {
		t.Error("occupancy with count > packMax accepted")
	}
}

// TestPackLimitsRejectsWideMachines: limits beyond the SWAR byte
// headroom are refused, and the widest machine Machine.Validate accepts
// still packs.
func TestPackLimitsRejectsWideMachines(t *testing.T) {
	m := isa.Default()
	if _, ok := PackLimits(&m); !ok {
		t.Fatal("default machine must be packable")
	}
	m.IssueWidth, m.Muls, m.MemUnits = isa.MaxIssueWidth, isa.MaxIssueWidth, isa.MaxIssueWidth
	m.Clusters, m.BranchClusters = isa.MaxClusters, isa.MaxClusters
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := PackLimits(&m); !ok {
		t.Errorf("widest valid machine %+v does not pack", m)
	}
	m.IssueWidth = packMax + 1
	if _, ok := PackLimits(&m); ok {
		t.Error("machine with IssueWidth > packMax accepted")
	}
}

// TestSelectPackedZeroAllocs: packed selection runs every simulated
// cycle, so it must never touch the heap.
func TestSelectPackedZeroAllocs(t *testing.T) {
	m := isa.Default()
	lim, ok := PackLimits(&m)
	if !ok {
		t.Fatal("default machine must be packable")
	}
	r := rand.New(rand.NewSource(13))
	for _, name := range []string{"3SSS", "3CCC", "2SC3", "2SS", "C4", "BMT"} {
		s, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Selector(4)
		if err != nil {
			t.Fatal(err)
		}
		vals, valid := pack(randomCands(r, &m, 4))
		d, ids := packDict(t, vals)
		allocs := testing.AllocsPerRun(200, func() {
			c.SelectPacked(d, &lim, ids, valid)
		})
		if allocs != 0 {
			t.Errorf("%s: SelectPacked allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

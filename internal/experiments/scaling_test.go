package experiments

import "testing"

// TestScaling8Shapes verifies the extension experiment: on eight hardware
// threads the mixed schemes recover most of the (unbuildable) 8-thread
// SMT performance at a fraction of its merge-control cost, and every
// merged design beats pure CSMT serial cost-wise or performance-wise in
// the expected direction.
func TestScaling8Shapes(t *testing.T) {
	opts := testOpts()
	rows, err := Scaling8(opts.Machine, sweepJobs(t, Scaling8Jobs(opts), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Scaling8Schemes()) {
		t.Fatalf("got %d rows", len(rows))
	}
	by := map[string]ScalingRow{}
	for _, r := range rows {
		by[r.Scheme] = r
		if r.IPC <= 0 || r.Transistors <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	smt := by["7SSSSSSS"]
	csmtSL := by["7CCCCCCC"]
	csmtPL := by["C8"]
	hybridPL := by["2SC7"]
	hybrid := by["4SC3C3C3"]

	// Functional identities: serial and parallel CSMT cascades, and the
	// two formulations of the SMT-pair-plus-CSMT hybrid.
	if csmtSL.IPC != csmtPL.IPC {
		t.Errorf("C8 (%.3f) and 7CCCCCCC (%.3f) differ", csmtPL.IPC, csmtSL.IPC)
	}
	if hybrid.IPC != hybridPL.IPC {
		t.Errorf("4SC3C3C3 (%.3f) and 2SC7 (%.3f) differ", hybrid.IPC, hybridPL.IPC)
	}
	// SMT is the performance ceiling.
	for _, r := range rows {
		if r.IPC > smt.IPC+1e-9 {
			t.Errorf("%s (%.3f) above 8-thread SMT (%.3f)", r.Scheme, r.IPC, smt.IPC)
		}
	}
	// The buildable hybrid (cascaded parallel-C3 levels) beats pure CSMT
	// and stays within 20% of full SMT at under a quarter of its
	// transistors; the single-level C7 form is functionally identical but
	// exponentially more expensive, mirroring the paper's Figure 5.
	if hybrid.IPC <= csmtSL.IPC {
		t.Errorf("4SC3C3C3 (%.3f) not above CSMT (%.3f)", hybrid.IPC, csmtSL.IPC)
	}
	if hybrid.IPC < 0.8*smt.IPC {
		t.Errorf("4SC3C3C3 (%.3f) more than 20%% below SMT (%.3f)", hybrid.IPC, smt.IPC)
	}
	if hybrid.Transistors >= smt.Transistors/4 {
		t.Errorf("4SC3C3C3 costs %d transistors, not well below SMT's %d",
			hybrid.Transistors, smt.Transistors)
	}
	if hybridPL.Transistors <= 3*hybrid.Transistors {
		t.Errorf("2SC7 (%d tr) not far above 4SC3C3C3 (%d tr)",
			hybridPL.Transistors, hybrid.Transistors)
	}
	// CSMT-only serial merge control stays the cheapest.
	if csmtSL.Transistors >= hybrid.Transistors {
		t.Errorf("CSMT serial (%d) not cheaper than the hybrid (%d)",
			csmtSL.Transistors, hybrid.Transistors)
	}
}

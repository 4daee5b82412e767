package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"vliwmt"
	"vliwmt/internal/isa"
	"vliwmt/internal/sweep"
)

func testOpts() Options {
	return DefaultOptions().Scale(60_000)
}

// sweepJobs runs a driver's job list through a Runner on workers
// workers (0: all cores) and returns its index-ordered results.
func sweepJobs(t *testing.T, jobs []sweep.Job, workers int) []sweep.Result {
	t.Helper()
	r := vliwmt.NewRunner(vliwmt.WithWorkers(workers), vliwmt.WithCache(vliwmt.SharedCompileCache()))
	rs, err := r.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(sweepJobs(t, Table1Jobs(testOpts()), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.IPCr > r.IPCp+1e-9 {
			t.Errorf("%s: IPCr %.3f above IPCp %.3f", r.Name, r.IPCr, r.IPCp)
		}
		if r.IPCp <= 0 {
			t.Errorf("%s: non-positive IPCp", r.Name)
		}
		// Within 25% of the paper at this reduced budget.
		if rel := math.Abs(r.IPCp-r.PaperIPCp) / r.PaperIPCp; rel > 0.25 {
			t.Errorf("%s: IPCp %.3f vs paper %.2f (%.0f%%)", r.Name, r.IPCp, r.PaperIPCp, rel*100)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	f, err := Fig4(sweepJobs(t, Fig4Jobs(testOpts()), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !(f.SingleThread < f.TwoThread && f.TwoThread < f.FourThread) {
		t.Fatalf("IPC not increasing with threads: %+v", f)
	}
	// The paper reports a 61% advantage of 4-thread over 2-thread SMT.
	adv := 100 * (f.FourThread - f.TwoThread) / f.TwoThread
	if adv < 30 || adv > 95 {
		t.Errorf("4T over 2T advantage = %.0f%%, want the paper's ballpark (61%%)", adv)
	}
}

func TestFig5Shape(t *testing.T) {
	pts, err := Fig5(isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 || pts[0].Threads != 2 || pts[6].Threads != 8 {
		t.Fatalf("unexpected thread range: %+v", pts)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(sweepJobs(t, Fig6Jobs(testOpts()), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 9 mixes + average", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Mix != "Average" {
		t.Fatalf("last row is %q", avg.Mix)
	}
	// SMT wins on every workload; the average advantage is in the
	// paper's ballpark (27%).
	for _, r := range rows[:9] {
		if r.AdvantagePc <= 0 {
			t.Errorf("%s: SMT not ahead of CSMT (%.1f%%)", r.Mix, r.AdvantagePc)
		}
	}
	if avg.AdvantagePc < 15 || avg.AdvantagePc > 45 {
		t.Errorf("average advantage %.1f%%, want paper ballpark (27%%)", avg.AdvantagePc)
	}
}

// TestFig10WorkerCountInvariance asserts that the full 16-scheme x 9-mix
// job set, run through a Runner, reduces to byte-identical numbers at
// every worker count.
func TestFig10WorkerCountInvariance(t *testing.T) {
	render := func(rows []Figure10Row) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%s:", r.Mix)
			for _, s := range Fig10Schemes() {
				fmt.Fprintf(&b, " %s=%.15f", s, r.IPC[s])
			}
			fmt.Fprintln(&b)
		}
		return b.String()
	}
	// A small budget keeps this affordable under -race in CI; the
	// engine-level 1/4/16 invariance test lives in internal/sweep.
	jobs := Fig10Jobs(DefaultOptions().Scale(5_000))
	var want string
	for _, workers := range []int{1, 16} {
		rows, err := Fig10(sweepJobs(t, jobs, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := render(rows)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d changed the Fig10 numbers", workers)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget Fig10 sweep (144 simulations) skipped in -short")
	}
	opts := testOpts()
	rows, err := Fig10(sweepJobs(t, Fig10Jobs(opts), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	avg := rows[len(rows)-1].IPC

	// Functional identities: schemes the paper groups as identical.
	for _, pair := range [][2]string{{"C4", "3CCC"}, {"2SC3", "3SCC"}, {"2C3S", "3CCS"}} {
		if math.Abs(avg[pair[0]]-avg[pair[1]]) > 1e-9 {
			t.Errorf("%s and %s differ: %.4f vs %.4f", pair[0], pair[1], avg[pair[0]], avg[pair[1]])
		}
	}
	// 3SSS is the peak; 1S the floor.
	for s, v := range avg {
		if v > avg["3SSS"]+1e-9 {
			t.Errorf("%s (%.3f) above 3SSS (%.3f)", s, v, avg["3SSS"])
		}
		if v < avg["1S"]-1e-9 {
			t.Errorf("%s (%.3f) below 1S (%.3f)", s, v, avg["1S"])
		}
	}
	// The single-SMT-block schemes beat 4-thread CSMT and land within
	// ~15% of 4-thread SMT (the paper reports +14% and -11%).
	for _, s := range []string{"2SC3", "3SCC", "3CSC", "3CCS", "2C3S"} {
		if avg[s] <= avg["3CCC"] {
			t.Errorf("%s (%.3f) not above 3CCC (%.3f)", s, avg[s], avg["3CCC"])
		}
		if avg[s] < 0.85*avg["3SSS"] {
			t.Errorf("%s (%.3f) more than 15%% below 3SSS (%.3f)", s, avg[s], avg["3SSS"])
		}
	}
	// The near-SMT schemes sit within ~8% of the peak (paper: 5.6%).
	for _, s := range []string{"3CSS", "3SCS", "3SSC"} {
		if avg[s] < 0.92*avg["3SSS"] {
			t.Errorf("%s (%.3f) more than 8%% below 3SSS (%.3f)", s, avg[s], avg["3SSS"])
		}
	}
	// Balanced CSMT merges less than the serial cascade.
	if avg["2CC"] >= avg["3CCC"] {
		t.Errorf("2CC (%.3f) not below 3CCC (%.3f)", avg["2CC"], avg["3CCC"])
	}

	// Tradeoffs combine with Figure 9 costs.
	pts, err := Tradeoffs(opts.Machine, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig10Schemes()) {
		t.Fatalf("got %d tradeoff points", len(pts))
	}
	by := map[string]TradeoffPoint{}
	for _, p := range pts {
		by[p.Scheme] = p
		if p.IPC <= 0 || p.Transistors <= 0 || p.GateDelays <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	// The paper's conclusion: 2SC3 dominates 2SC (more performance for
	// fewer transistors) and approaches 3SSS at a fraction of its cost.
	if by["2SC3"].Transistors >= by["2SC"].Transistors || by["2SC3"].IPC < by["2SC"].IPC-1e-9 {
		t.Errorf("2SC3 does not dominate 2SC: %+v vs %+v", by["2SC3"], by["2SC"])
	}
	if by["2SC3"].Transistors > by["3SSS"].Transistors/2 {
		t.Errorf("2SC3 costs %d transistors, not well below 3SSS's %d",
			by["2SC3"].Transistors, by["3SSS"].Transistors)
	}
}

func TestTradeoffsValidation(t *testing.T) {
	if _, err := Tradeoffs(isa.Default(), nil); err == nil {
		t.Error("Tradeoffs accepted empty input")
	}
	if _, err := Tradeoffs(isa.Default(), []Figure10Row{{Mix: "LLLL"}}); err == nil {
		t.Error("Tradeoffs accepted rows without average")
	}
}

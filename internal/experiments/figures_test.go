package experiments

import (
	"slices"
	"strings"
	"testing"

	"vliwmt/internal/resultstore"
)

// TestPlanDedupesByStoreKey pins the figure planner's job set: every
// Figure 4 and 6 job is also a Figure 10 job (and Figures 11 and 12
// list Figure 10's jobs again), so "all" plans 182 distinct jobs, and
// each figure's index map points at a job with the key of the job it
// listed.
func TestPlanDedupesByStoreKey(t *testing.T) {
	o := DefaultOptions().Scale(20_000)
	p, err := NewPlan("all", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Jobs) != 182 {
		t.Fatalf("planned %d jobs, want 182", len(p.Jobs))
	}
	seen := map[string]bool{}
	keys := make([]string, len(p.Jobs))
	for i, j := range p.Jobs {
		k, err := resultstore.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Errorf("job %d (%s) planned twice", i, j.Describe())
		}
		seen[k], keys[i] = true, k
		if j.Seed != o.Seed {
			t.Errorf("job %s seed %d, want the options seed %d verbatim", j.Describe(), j.Seed, o.Seed)
		}
	}
	for n, f := range p.figs {
		if f.jobs == nil {
			if len(p.idx[n]) != 0 {
				t.Errorf("%s: cost-only figure maps %d jobs", f.name, len(p.idx[n]))
			}
			continue
		}
		listed := f.jobs(o)
		if len(listed) != len(p.idx[n]) {
			t.Fatalf("%s: %d listed jobs, %d mapped", f.name, len(listed), len(p.idx[n]))
		}
		for i, j := range listed {
			if k, _ := resultstore.Key(j); k != keys[p.idx[n][i]] {
				t.Errorf("%s job %s maps to %s", f.name, j.Describe(), p.Jobs[p.idx[n][i]].Describe())
			}
		}
	}
}

func TestNewPlanSelection(t *testing.T) {
	o := DefaultOptions().Scale(20_000)
	p, err := NewPlan("fig12, table1", o)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range p.figs {
		names = append(names, f.name)
	}
	if !slices.Equal(names, []string{"table1", "fig12"}) {
		t.Errorf("selected %v, want render order [table1 fig12]", names)
	}
	if want := len(Table1Jobs(o)) + len(Fig10Jobs(o)); len(p.Jobs) != want {
		t.Errorf("planned %d jobs, want %d", len(p.Jobs), want)
	}
	if cp, err := NewPlan("table2,fig5,fig9", o); err != nil {
		t.Error(err)
	} else if len(cp.Jobs) != 0 {
		t.Errorf("cost-only selection planned %d jobs, want none", len(cp.Jobs))
	}
	if _, err := NewPlan("fig7", o); err == nil || !strings.Contains(err.Error(), "fig7") {
		t.Errorf("unknown figure accepted (err %v)", err)
	}
	if err := p.Render(&strings.Builder{}, nil); err == nil {
		t.Error("Render accepted a short result set")
	}
}

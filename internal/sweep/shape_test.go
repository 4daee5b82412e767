package sweep

import (
	"context"
	"testing"
)

// shapeGrid is a single-shape sweep: one mix under six schemes, so every
// job shares the same machine and benchmark list — the grid shape the
// engine once folded into one unit on one goroutine.
func shapeGrid() Grid {
	return Grid{
		Schemes:    []string{"1S", "3CCC", "2SC3", "3SSS", "C4", "BMT"},
		Mixes:      []string{"LLHH"},
		InstrLimit: 10_000,
		Seed:       11,
	}
}

// TestBatchingDeterministic pins determinism for jobs of one shape:
// fanned out over any worker count, including more workers than jobs,
// the sweep returns the same results in the same job order.
func TestBatchingDeterministic(t *testing.T) {
	jobs, err := shapeGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 2, 3, 8} {
		results, err := New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("workers=%d: results reordered: index %d at position %d", workers, r.Index, i)
			}
		}
		got := fingerprint(t, results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d diverged from the serial sweep:\n%s\nvs:\n%s", workers, got, want)
		}
	}
}

// TestBatchingProgressMonotonic verifies the ProgressFunc contract when
// jobs of one shape complete concurrently: done increments by exactly
// one per call, reaches the total, and every reported result is final
// (non-nil or errored).
func TestBatchingProgressMonotonic(t *testing.T) {
	jobs, err := shapeGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(4)
	var seq []int
	e.SetProgress(func(done, total int, r Result) {
		seq = append(seq, done)
		if total != len(jobs) {
			t.Errorf("progress total = %d, want %d", total, len(jobs))
		}
		if r.Res == nil && r.Err == nil {
			t.Errorf("progress delivered a job with neither result nor error: %s", r.Job.Describe())
		}
	})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(jobs) {
		t.Fatalf("progress fired %d times for %d jobs", len(seq), len(jobs))
	}
	for i, d := range seq {
		if d != i+1 {
			t.Fatalf("progress done sequence not monotonic: got %v", seq)
		}
	}
}

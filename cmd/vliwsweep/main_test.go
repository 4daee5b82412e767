package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"testing"

	"vliwmt"
	"vliwmt/internal/experiments"
	"vliwmt/internal/server"
	"vliwmt/internal/telemetry"
)

func csvOf(t *testing.T, results []vliwmt.SweepResult) []byte {
	t.Helper()
	rows := rowsFrom(results, func(err error) { t.Fatal(err) })
	if len(rows) != len(results) {
		t.Fatalf("%d rows from %d results", len(rows), len(results))
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmStoreZeroSimulations is the acceptance criterion of the
// persistent result store: repeating the Table 1 grid against a warm
// store performs zero simulations — every job is a store hit, nothing
// is compiled — and the emitted CSV is byte-identical to the cold
// run's, elapsed_sec column included (cached results replay the
// original times).
func TestWarmStoreZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	jobs := experiments.Table1Jobs(experiments.DefaultOptions().Scale(10_000))

	cold := vliwmt.NewRunner(vliwmt.WithStore(vliwmt.OpenResultStore(dir)))
	a, err := cold.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Store().Stats(); st.Hits != 0 || st.Misses != int64(len(jobs)) || st.Puts != int64(len(jobs)) {
		t.Fatalf("cold run store stats %+v, want %d misses and puts", st, len(jobs))
	}
	coldCSV := csvOf(t, a)

	// A fresh Runner with a fresh compile cache: any simulation would
	// have to compile first, so zero compiles proves zero simulations.
	warm := vliwmt.NewRunner(vliwmt.WithStore(vliwmt.OpenResultStore(dir)))
	b, err := warm.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Store().Stats(); st.Hits != int64(len(jobs)) || st.Misses != 0 || st.Puts != 0 {
		t.Errorf("warm run store stats %+v, want %d hits and nothing else", st, len(jobs))
	}
	if compiles, _ := warm.Cache().Stats(); compiles != 0 {
		t.Errorf("warm run compiled %d kernels, want 0 (zero simulations)", compiles)
	}
	for _, r := range b {
		if !r.Cached {
			t.Errorf("warm job %s not served from the store", r.Job.Describe())
		}
	}
	if warmCSV := csvOf(t, b); !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV differs from cold CSV:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}
}

// figureGolden is the paper's figures at a 20k-instruction budget and
// seed 1, as committed before the figures moved onto the sweep front
// end; every path that renders them must reproduce it byte for byte.
const figureGolden = "../../testdata/golden/paperfigs.txt"

var figureArgs = []string{"-figure", "all", "-instr", "20000", "-seed", "1"}

// runCLI runs vliwsweep in-process with args and returns its stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// simRuns reads the process-wide count of completed simulations.
func simRuns() int64 { return telemetry.Default().Snapshot().Counter("sim_runs_total") }

// TestFigureGolden renders -figure all in-process, on one worker and
// through a vliwserve, and compares each stdout with the golden file.
func TestFigureGolden(t *testing.T) {
	want, err := os.ReadFile(figureGolden)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"in-process", nil},
		{"workers=1", []string{"-workers", "1"}},
		{"addr", []string{"-addr", ts.URL}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.extra != nil {
				t.Skip("one 182-job figure set is enough in -short")
			}
			got := runCLI(t, append(tc.extra, figureArgs...)...)
			if !bytes.Equal(got, want) {
				t.Errorf("-figure all %v differs from %s:\n%s", tc.extra, figureGolden, got)
			}
		})
	}
}

// TestFigureWarmStore runs -figure all twice against one fresh store:
// the cold run simulates each of the 182 distinct jobs exactly once,
// the warm run simulates none, and both print the same figures.
func TestFigureWarmStore(t *testing.T) {
	args := append([]string{"-store", t.TempDir()}, figureArgs...)
	before := simRuns()
	cold := runCLI(t, args...)
	if n := simRuns() - before; n != 182 {
		t.Errorf("cold run simulated %d jobs, want 182", n)
	}
	before = simRuns()
	warm := runCLI(t, args...)
	if n := simRuns() - before; n != 0 {
		t.Errorf("warm run simulated %d jobs, want 0", n)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm stdout differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

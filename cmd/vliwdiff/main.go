// Command vliwdiff makes simulator regressions diffable: it compares
// two snapshots of deterministic sweep results and prints per-metric
// deltas for every job whose output changed, exiting 1 on any
// divergence (and 0 when everything is bit-identical).
//
// A snapshot source is either a result-store directory (as written by
// `vliwsweep -store`, `vliwserve -results` or a Runner with
// WithStore(OpenResultStore(dir))) or a snapshot JSON file (as written
// by vliwgolden or -save):
//
//	vliwdiff old-store/ new-store/         # two stores, e.g. two worktrees
//	vliwdiff testdata/golden/corpus.json new-store/
//
// With grid flags instead of a second source, the grid is run live
// in-process and compared against the baseline — "does my working tree
// still produce the committed numbers?" as one command:
//
//	vliwdiff -schemes 2SC3,3SSS -mixes LLHH -instr 20000 baseline.json
//	vliwdiff -live testdata/golden/corpus.json   # re-run the baseline's own jobs
//
// Comparison is keyed by job content hash — the canonical hash of
// (scheme tree, machine, caches, memory model, budget, seed, schema
// version) — so only jobs with identical configurations are compared,
// and jobs present on one side only are reported rather than silently
// dropped.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"vliwmt"
	"vliwmt/internal/merge"
	"vliwmt/internal/sweep"
)

func run() (clean bool, err error) {
	var (
		schemes    = flag.String("schemes", "", "live mode: comma-separated merge schemes to run against the baseline")
		mixes      = flag.String("mixes", "", "live mode: comma-separated Table 2 mixes")
		instr      = flag.Int64("instr", sweep.DefaultInstrLimit, "live mode: per-thread instruction budget")
		timeslice  = flag.Int64("timeslice", 0, "live mode: OS quantum in cycles (0: budget/100)")
		seed       = flag.Uint64("seed", 1, "live mode: sweep seed")
		sharedSeed = flag.Bool("sharedseed", false, "live mode: give every job the sweep seed verbatim")
		live       = flag.Bool("live", false, "re-run the baseline's own jobs live instead of reading a second source")
		workers    = flag.Int("workers", 0, "worker pool size for live runs (0: runtime.NumCPU())")
		save       = flag.String("save", "", "also write the new/live snapshot to this file")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage:\n  vliwdiff [flags] OLD NEW\n  vliwdiff [flags] -live BASELINE\n  vliwdiff [grid flags] BASELINE\n\n"+
				"OLD, NEW and BASELINE are result-store directories or snapshot JSON files.\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	gridMode := *schemes != "" || *mixes != ""
	var oldName, newName string
	var oldSnap, newSnap vliwmt.ResultSnapshot

	switch {
	case len(args) == 2 && !gridMode && !*live:
		oldName, newName = args[0], args[1]
		if oldSnap, err = vliwmt.LoadSnapshot(oldName); err != nil {
			return false, err
		}
		if newSnap, err = vliwmt.LoadSnapshot(newName); err != nil {
			return false, err
		}
	case len(args) == 1:
		if *live && gridMode {
			// Silently preferring one over the other would compare a job
			// set the user never asked about.
			return false, fmt.Errorf("-live replays the baseline's own jobs; it cannot be combined with grid flags (-schemes/-mixes)")
		}
		oldName, newName = args[0], "live run"
		if oldSnap, err = vliwmt.LoadSnapshot(oldName); err != nil {
			return false, err
		}
		var jobs []vliwmt.SweepJob
		if *live {
			// Replay the baseline's own jobs, whatever grid produced them.
			if jobs, err = oldSnap.Jobs(); err != nil {
				return false, err
			}
		} else {
			if !gridMode {
				return false, fmt.Errorf("one source given but no grid flags; pass -live to re-run the baseline's own jobs")
			}
			g := vliwmt.Grid{
				Schemes:         merge.SplitNames(*schemes),
				Mixes:           merge.SplitNames(*mixes),
				InstrLimit:      *instr,
				TimesliceCycles: *timeslice,
				Seed:            *seed,
				SharedSeed:      *sharedSeed,
			}
			if jobs, err = g.Jobs(); err != nil {
				return false, err
			}
		}
		results, err := vliwmt.SweepJobs(context.Background(), jobs, &vliwmt.SweepOptions{Workers: *workers})
		if err != nil {
			return false, err
		}
		if newSnap, err = vliwmt.SnapshotResults(results); err != nil {
			return false, err
		}
	default:
		flag.Usage()
		return false, fmt.Errorf("want two snapshot sources, or one source plus grid flags or -live")
	}

	if *save != "" {
		if err := vliwmt.WriteSnapshot(*save, newSnap); err != nil {
			return false, err
		}
	}
	d := vliwmt.DiffSnapshots(oldSnap, newSnap)
	d.WriteText(os.Stdout, oldName, newName)
	return d.Clean(), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwdiff: ")
	clean, err := run()
	if err != nil {
		log.Fatal(err)
	}
	if !clean {
		os.Exit(1)
	}
}

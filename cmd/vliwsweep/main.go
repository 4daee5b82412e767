// Command vliwsweep runs arbitrary merge-scheme x workload-mix grids on
// the parallel sweep engine and emits the results as a text table, JSON
// or CSV.
//
// Usage:
//
//	vliwsweep                                  # all 16 schemes x 9 mixes
//	vliwsweep -schemes 2SC3,3SSS -mixes LLHH   # a sub-grid
//	vliwsweep -schemes '2SC3,S(C(T0,T1,T2),T3)' -mixes LLHH  # custom tree
//	vliwsweep -workers 8 -instr 1000000 -seed 3 -format json
//	vliwsweep -sharedseed -progress
//	vliwsweep -store results/ -mixes LLHH      # persistent result store
//	vliwsweep -addr localhost:8080 -mixes LLHH # same grid, remote vliwserve or vliwfabric
//	vliwsweep -stats -mixes LLHH               # lifecycle summary on stderr
//	vliwsweep -log-level debug -log-json       # structured sweep tracing
//	vliwsweep -figure all                      # the paper's tables and figures
//	vliwsweep -figure fig10,fig11 -store results/
//
// Every job derives its seed from -seed and its index, so output is
// bit-identical at any -workers count; -sharedseed gives every job the
// same seed instead (required when comparing schemes the paper treats as
// functionally identical, e.g. C4 vs 3CCC).
//
// With -addr the grid is submitted to a running vliwserve instance, or
// to a vliwfabric coordinator that shards it across a worker pool,
// instead of the in-process engine; the determinism contract crosses
// the wire, so the output is identical modulo the wall-clock fields
// (elapsed_sec / time).
//
// With -figure, the job set is the union of the named tables and
// figures (table1, table2, fig4, fig5, fig6, fig9, fig10, fig11, fig12,
// ext8, or all), deduped so a job shared by several figures runs once;
// every job carries -seed verbatim, which the paper's scheme identities
// (C4 vs 3CCC) need. -format text renders the figures; json and csv
// emit the per-job rows. Store, -addr, -stats and the budget flags
// apply exactly as for a grid.
//
// With -store, completed jobs persist in a content-addressed store at
// the given directory and later sweeps serve identical jobs from disk
// instead of re-simulating them — a repeated sweep against a warm
// store performs zero simulations and emits byte-identical output
// (cached results replay the original elapsed times). The store is
// diffable against another store or a committed baseline with
// vliwdiff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/experiments"
	"vliwmt/internal/merge"
	"vliwmt/internal/profiling"
	"vliwmt/internal/report"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// row is one job's flattened result, shared by the JSON, CSV and text
// emitters.
type row struct {
	Mix        string  `json:"mix"`
	Scheme     string  `json:"scheme"`
	Contexts   int     `json:"contexts"`
	Seed       uint64  `json:"seed"`
	IPC        float64 `json:"ipc"`
	Cycles     int64   `json:"cycles"`
	Instrs     int64   `json:"instrs"`
	Ops        int64   `json:"ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// rowsFrom flattens successful results into output rows, reporting
// failed or timed-out jobs through warn. Cached results flatten
// exactly like fresh ones (the store replays the original elapsed
// time), so warm and cold sweeps emit identical rows.
func rowsFrom(results []vliwmt.SweepResult, warn func(error)) []row {
	rows := make([]row, 0, len(results)) // [] rather than null in -format json
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		ipc, ierr := r.IPC()
		if ierr != nil {
			warn(ierr)
			continue
		}
		mix, _, _ := strings.Cut(r.Job.Label, "/")
		rows = append(rows, row{
			Mix:        mix,
			Scheme:     r.Job.Scheme,
			Contexts:   r.Job.EffectiveContexts(),
			Seed:       r.Job.Seed,
			IPC:        ipc,
			Cycles:     r.Res.Cycles,
			Instrs:     r.Res.Instrs,
			Ops:        r.Res.Ops,
			ElapsedSec: r.Elapsed.Seconds(),
		})
	}
	return rows
}

// writeCSV emits the -format csv document.
func writeCSV(w io.Writer, rows []row) error {
	headers := []string{"mix", "scheme", "contexts", "seed", "ipc", "cycles", "instrs", "ops", "elapsed_sec"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Mix, r.Scheme, fmt.Sprint(r.Contexts), fmt.Sprint(r.Seed),
			report.F(r.IPC), fmt.Sprint(r.Cycles), fmt.Sprint(r.Instrs), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.3f", r.ElapsedSec)})
	}
	return report.CSV(w, headers, tr)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwsweep: ")
	// Ctrl-C cancels the sweep; completed jobs are still reported. Once
	// cancelled, stop() restores default signal handling so a second
	// Ctrl-C kills the process instead of being swallowed while
	// in-flight jobs drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and runs one sweep, writing its output to w;
// progress, statistics and warnings go to stderr.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vliwsweep", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "", "submit the grid to a remote vliwserve or vliwfabric at this address instead of running in-process")
		jobsFile   = fs.String("jobs", "", "read a sweep-request JSON document (a grid or an explicit job set, e.g. emitted by vliwgen) from this file, - for stdin; replaces -schemes/-mixes")
		figure     = fs.String("figure", "", "run the paper's tables and figures as one deduped job set: all, or a comma-separated list of "+strings.Join(experiments.FigureNames(), ",")+"; replaces -schemes/-mixes")
		schemes    = fs.String("schemes", "", "comma-separated merge schemes — names or tree expressions like C(S(T0,T1),T2,T3) (default: the paper's sixteen)")
		mixes      = fs.String("mixes", "", "comma-separated Table 2 mixes (default: all nine)")
		workers    = fs.Int("workers", 0, "worker pool size (0: runtime.NumCPU())")
		seed       = fs.Uint64("seed", 1, "sweep seed; per-job seeds derive from it")
		instr      = fs.Int64("instr", sweep.DefaultInstrLimit, "per-thread instruction budget")
		timeslice  = fs.Int64("timeslice", 0, "OS quantum in cycles (0: budget/100)")
		sharedSeed = fs.Bool("sharedseed", false, "give every job the sweep seed verbatim")
		store      = fs.String("store", "", "persistent result store directory: serve repeated jobs from disk, persist fresh ones")
		format     = fs.String("format", "text", "output format: text, json or csv")
		progress   = fs.Bool("progress", false, "report per-job progress on stderr")
		stats      = fs.Bool("stats", false, "print the sweep lifecycle summary (jobs, store hit ratio, p50/p99 job latency, jobs/s) on stderr")
		logLevel   = fs.String("log-level", "", "enable structured sweep tracing on stderr at this level: debug, info, warn or error (empty: off; debug adds a line per job)")
		logJSON    = fs.Bool("log-json", false, "emit structured traces as JSON lines instead of text (implies -log-level info)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	fs.Parse(args)
	switch *format {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want text, json or csv)", *format)
	}
	if *logLevel != "" || *logJSON {
		lv := *logLevel
		if lv == "" {
			lv = "info"
		}
		if _, err := telemetry.ConfigureSlog(os.Stderr, lv, *logJSON); err != nil {
			return err
		}
	}
	if *addr != "" && *store != "" {
		// The remote server owns its own store (vliwserve -results,
		// vliwfabric -results); silently ignoring -store would look
		// like caching that never happens.
		return errors.New("-store applies to in-process sweeps; with -addr, configure the store on the server (-results)")
	}
	if *figure != "" && (*jobsFile != "" || *schemes != "" || *mixes != "" || *sharedSeed) {
		return errors.New("-figure carries its own job set; drop -jobs/-schemes/-mixes/-sharedseed")
	}
	// Profiling starts only after flag validation; every later error
	// returns through the deferred stop, so the profiles are flushed
	// instead of leaving a truncated cpu.prof.
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			log.Print(perr)
		}
	}()

	grid := vliwmt.Grid{
		Schemes:         merge.SplitNames(*schemes),
		Mixes:           merge.SplitNames(*mixes),
		InstrLimit:      *instr,
		TimesliceCycles: *timeslice,
		Seed:            *seed,
		SharedSeed:      *sharedSeed,
	}
	// -jobs replaces the flag-built grid with a decoded request: a
	// declarative grid, or an explicit job set (a vliwgen stream
	// scenario) executed verbatim.
	var jobs []vliwmt.SweepJob
	if *jobsFile != "" {
		if *schemes != "" || *mixes != "" {
			return errors.New("-jobs carries its own grid or job set; drop -schemes/-mixes")
		}
		in := os.Stdin
		if *jobsFile != "-" {
			f, err := os.Open(*jobsFile)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		req, err := api.DecodeSweepRequest(in)
		if err != nil {
			return err
		}
		switch {
		case len(req.Jobs) > 0:
			for _, wj := range req.Jobs {
				j, err := wj.Sweep()
				if err != nil {
					return err
				}
				jobs = append(jobs, j)
			}
		case req.Grid != nil:
			grid = req.Grid.Sweep()
		default:
			return errors.New("-jobs document carries neither a grid nor a job set")
		}
	}
	// -figure is the other source of an explicit job set: the selected
	// figures' jobs, deduped, at the flags' budget and seed.
	var plan *experiments.Plan
	if *figure != "" {
		o := experiments.DefaultOptions()
		o.InstrLimit, o.Timeslice = sweep.Budget(*instr, *timeslice)
		o.Seed = *seed
		if plan, err = experiments.NewPlan(*figure, o); err != nil {
			return err
		}
		jobs = plan.Jobs
	}
	var progressFn func(done, total int, r vliwmt.SweepResult)
	if *progress {
		progressFn = func(done, total int, r vliwmt.SweepResult) {
			status := "ok"
			if r.Err != nil {
				status = r.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-12s %6.2fs  %s\n",
				done, total, r.Job.Describe(), r.Elapsed.Seconds(), status)
		}
	}

	start := time.Now()
	var results []vliwmt.SweepResult
	switch {
	case plan != nil && len(jobs) == 0:
		// Cost-only figures simulate nothing.
	case *addr != "":
		client := vliwmt.NewClient(*addr)
		opts := &vliwmt.SweepOptions{Workers: *workers, Progress: progressFn}
		if jobs != nil {
			results, err = client.SweepJobs(ctx, jobs, opts)
		} else {
			results, err = client.Sweep(ctx, grid, opts)
		}
	default:
		var rs *vliwmt.ResultStore
		if *store != "" {
			rs = vliwmt.OpenResultStore(*store)
		}
		runner := vliwmt.NewRunner(vliwmt.WithWorkers(*workers), vliwmt.WithProgress(progressFn), vliwmt.WithStore(rs))
		if jobs != nil {
			results, err = runner.SweepJobs(ctx, jobs)
		} else {
			results, err = runner.Sweep(ctx, grid)
		}
	}
	elapsed := time.Since(start)
	if err != nil && results == nil {
		return err
	}

	rows := rowsFrom(results, func(err error) { log.Print(err) })

	switch *format {
	case "json":
		if jerr := report.JSON(w, rows); jerr != nil {
			return jerr
		}
	case "csv":
		if cerr := writeCSV(w, rows); cerr != nil {
			return cerr
		}
	case "text":
		if plan != nil {
			if err == nil {
				err = plan.Render(w, results)
			}
			break
		}
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{r.Mix, r.Scheme, fmt.Sprint(r.Contexts),
				report.F(r.IPC), fmt.Sprint(r.Cycles), fmt.Sprintf("%.2fs", r.ElapsedSec)})
		}
		report.Table(w, []string{"mix", "scheme", "threads", "IPC", "cycles", "time"}, tr)
		fmt.Fprintf(w, "\n%d/%d jobs in %.2fs (workers=%d)\n",
			len(rows), len(results), elapsed.Seconds(), sweep.PoolSize(*workers))
	}
	if *stats {
		// The lifecycle summary goes to stderr so -format json/csv
		// stdout stays machine-readable. Computed from the results
		// either way, so it works for -addr sweeps too (cached jobs
		// carry the replayed original elapsed times).
		fmt.Fprintln(os.Stderr, vliwmt.SummarizeSweep(results, elapsed))
	}
	return err
}

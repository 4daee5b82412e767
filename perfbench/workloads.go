package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vliwmt"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/wgen"
)

// Workload sizes. They are part of the benchmark's definition: a
// change to any of them is a change to the benchmark, not to the
// program, and needs fresh digests (-bless).
const (
	fig10Budget   = 100_000
	onemixBudget  = 300_000
	onemixCombo   = "LMHH"
	streamBudget  = 20_000
	streamJobsReq = 16                     // jobs per client sweep
	streamReqs    = 640                    // requests prepared per run; a run stops early if it uses them all
	streamRepeat  = 0.5                    // probability that a slot repeats a job of an earlier request
	countReqs     = 6                      // requests in fabric-stream's exact-count pass
	setupRepeats  = 15                     // set-ups per run at least; setup_s is their median
	setupFor      = 500 * time.Millisecond // and repeated for at least this long
	setupMax      = 2000
	minRequests   = 2   // in-process workloads always make at least this many sweeps
	streamMinReqs = 100 // fabric-stream keeps going past --seconds until p90 is defined
)

// workloadSpec names a workload and builds its inputs from the seed.
type workloadSpec struct {
	name  string
	build func(seed uint64) (*inputs, error)
}

var workloads = []workloadSpec{
	{"fig10-cold", fig10Inputs},
	{"onemix-perfect", onemixInputs},
	{"fabric-stream", streamInputs},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inputs is a workload's generated input: the distinct jobs it can
// submit, and the requests that submit them (indices into jobs). The
// in-process workloads submit every job in each request; fabric-stream
// submits requests of 16 jobs, about half of them repeats.
type inputs struct {
	jobs    []sweep.Job
	reqs    [][]int
	repeats [][]bool // fabric-stream: slot repeats a job of an earlier request
	inproc  bool
	schemes []string
}

// mix64 is splitmix64's finaliser: it spreads the command-line seed so
// neighbouring seeds give unrelated inputs and no seed maps to zero.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// fig10Inputs is the paper's Figure 10 grid: 16 schemes x 9 Table 2
// mixes with default caches.
func fig10Inputs(seed uint64) (*inputs, error) {
	jobs, err := sweep.Grid{InstrLimit: fig10Budget, Seed: mix64(seed)}.Jobs()
	if err != nil {
		return nil, err
	}
	return inprocInputs(jobs, sweep.DefaultSchemes()), nil
}

// onemixInputs is one generated mix under every paper scheme plus the
// IMT and BMT baselines, on perfect memory: 18 jobs of one shape. The
// seed picks the members' kernels; their profiles sit at the middle of
// their class's range, so the work per sweep varies little from seed
// to seed.
func onemixInputs(seed uint64) (*inputs, error) {
	schemes := append(sweep.DefaultSchemes(), "IMT", "BMT")
	jobs, err := sweep.Grid{Schemes: schemes, Mixes: []string{onemixCombo}, InstrLimit: onemixBudget, Seed: mix64(seed + 1)}.Jobs()
	if err != nil {
		return nil, err
	}
	members := make([]string, len(onemixCombo))
	for i := range onemixCombo {
		c, err := wgen.ParseClass(onemixCombo[i : i+1])
		if err != nil {
			return nil, err
		}
		members[i] = wgen.BenchmarkName(midProfile(c), mix64(seed)+uint64(i))
	}
	for i := range jobs {
		jobs[i].Benchmarks = members
		jobs[i].Label = "onemix/" + jobs[i].Scheme
		jobs[i].PerfectMemory = true
	}
	return inprocInputs(jobs, schemes), nil
}

// midProfile is the middle of wgen.RandomProfile's range for class c.
func midProfile(c wgen.Class) wgen.Profile {
	switch c {
	case wgen.Low:
		return wgen.Profile{Class: c, Blocks: 8, Ops: 11, MemDensity: 0.30, MulDensity: 0.10,
			BranchDensity: 0.60, TakenBias: 0.40, TripCount: 34, Unroll: 1}
	case wgen.Medium:
		return wgen.Profile{Class: c, Blocks: 4, Ops: 20, MemDensity: 0.20, MulDensity: 0.20,
			BranchDensity: 0.30, TakenBias: 0.35, TripCount: 52, Unroll: 1}
	}
	return wgen.Profile{Class: c, Blocks: 2, Ops: 44, MemDensity: 0.15, MulDensity: 0.225,
		BranchDensity: 0.15, TakenBias: 0.25, TripCount: 72, Unroll: 1}
}

func inprocInputs(jobs []sweep.Job, schemes []string) *inputs {
	all := make([]int, len(jobs))
	for i := range all {
		all[i] = i
	}
	return &inputs{jobs: jobs, reqs: [][]int{all}, inproc: true, schemes: schemes}
}

// streamInputs draws fabric-stream's requests: jobs from a generated
// request stream (schemes round-robin over the 16 paper schemes), each
// slot of a request either the stream's next job or, with probability
// streamRepeat, a uniformly chosen job of an earlier request.
func streamInputs(seed uint64) (*inputs, error) {
	rng := wgen.NewRand(mix64(seed + 1))
	in := &inputs{schemes: sweep.DefaultSchemes()}
	used := 0 // stream jobs handed out so far
	for q := 0; q < streamReqs; q++ {
		earlier := used
		req := make([]int, streamJobsReq)
		rep := make([]bool, streamJobsReq)
		for k := range req {
			if earlier > 0 && float64(rng.Uint64()>>11)/(1<<53) < streamRepeat {
				req[k] = int(rng.Uint64() % uint64(earlier))
				rep[k] = true
				continue
			}
			req[k] = used
			used++
		}
		in.reqs = append(in.reqs, req)
		in.repeats = append(in.repeats, rep)
	}
	reqs, err := wgen.GenerateStream(wgen.StreamOptions{Requests: used, Schemes: in.schemes}, mix64(seed))
	if err != nil {
		return nil, err
	}
	in.jobs = vliwmt.StreamJobs(reqs, streamBudget)
	return in, nil
}

// label names job slot u of request q; the tracer pairs spans by it.
func label(q, u int) string { return fmt.Sprintf("q%d/u%d", q, u) }

// delivery is one job result as the caller received it.
type delivery struct {
	u       int // index into inputs.jobs
	res     *sim.Result
	err     error
	elapsed time.Duration
	cached  bool
	fresh   bool          // simulated for this request (not from a store, not a duplicate)
	latency time.Duration // request start until the result reached the caller
}

// request is one measured request: a sweep (in-process) or one
// client's 16-job submission (fabric-stream).
type request struct {
	id      string
	q       int // index into inputs.reqs (fabric-stream)
	latency time.Duration
	got     []delivery
	results []sweep.Result
	// before and after bracket an in-process sweep's counters.
	before, after vliwmt.MetricsSnapshot
}

// phase is what one measured phase saw.
type phase struct {
	wall    time.Duration
	reqs    []request
	workers int // simulating workers, for the busy ratio
	before  vliwmt.MetricsSnapshot
	after   vliwmt.MetricsSnapshot
}

// instance is a set-up workload, ready to measure. With a tracer it
// records spans around its calls into the program.
type instance interface {
	measure(ctx context.Context, d time.Duration) (*phase, error)
	close()
}

// setup builds a fresh instance of the workload.
func setup(in *inputs, root string, tr *tracer) (instance, error) {
	if in.inproc {
		return &inproc{in: in, root: root, tr: tr}, nil
	}
	return newStream(in, root, tr)
}

// inproc runs a workload as a researcher runs a cold sweep: every
// request is a fresh sweep.Engine with an empty compile cache and an
// empty result store, workers = nproc.
// Each sweep's store directory is created by the store's first write.
type inproc struct {
	in     *inputs
	root   string
	tr     *tracer
	sweeps int
}

func (w *inproc) close() { os.RemoveAll(w.root) }

func (w *inproc) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{workers: sweep.PoolSize(0), before: vliwmt.Metrics()}
	start := time.Now()
	for len(ph.reqs) < minRequests || time.Since(start) < d {
		r, err := w.sweep(ctx)
		if err != nil {
			return nil, err
		}
		ph.reqs = append(ph.reqs, r)
	}
	ph.wall = time.Since(start)
	ph.after = vliwmt.Metrics()
	return ph, nil
}

// sweep runs every job once on a fresh engine, cache and store.
func (w *inproc) sweep(ctx context.Context) (request, error) {
	tr := w.tr
	n := w.sweeps
	w.sweeps++
	id := fmt.Sprintf("q%d", n)
	store := resultstore.Open(filepath.Join(w.root, id))
	e := sweep.New(0)
	e.SetCache(sweep.NewCompileCache())
	root, t0 := tr.begin()
	if tr != nil {
		e.SetStore(&timedStore{inner: store, tr: tr, req: id, parent: root})
	} else {
		e.SetStore(store)
	}
	jobs := w.in.jobs
	arrived := make([]time.Time, len(jobs))
	before := vliwmt.Metrics()
	start := time.Now()
	e.SetProgress(func(_, _ int, r sweep.Result) { arrived[r.Index] = time.Now() })
	results, err := e.Run(ctx, jobs)
	lat := time.Since(start)
	tr.end(root, 0, "sweep", id, t0)
	if ctx.Err() != nil {
		return request{}, ctx.Err()
	}
	_ = err // per-job errors are on the results and counted as failures
	r := request{id: id, latency: lat, results: results, before: before, after: vliwmt.Metrics()}
	for i, res := range results {
		r.got = append(r.got, delivery{u: i, res: res.Res, err: res.Err, elapsed: res.Elapsed,
			cached: res.Cached, fresh: !res.Cached, latency: arrived[i].Sub(start)})
	}
	if tr != nil {
		simSpans(tr, id, root, results, arrived)
	}
	os.RemoveAll(filepath.Join(w.root, id))
	return r, nil
}

// simSpans records the simulate spans of one sweep. The engine reports
// a batched unit's per-job Elapsed as an equal share of the unit's wall
// time, so jobs with identical Elapsed form one unit: its span ends at
// the unit's last arrival and lasts share x lanes.
func simSpans(tr *tracer, req string, parent int64, results []sweep.Result, arrived []time.Time) {
	type unit struct {
		lanes int
		end   time.Time
	}
	units := map[time.Duration]*unit{}
	var order []time.Duration
	for i, r := range results {
		if r.Cached || r.Res == nil {
			continue
		}
		u, ok := units[r.Elapsed]
		if !ok {
			u = &unit{}
			units[r.Elapsed] = u
			order = append(order, r.Elapsed)
		}
		u.lanes++
		if arrived[i].After(u.end) {
			u.end = arrived[i]
		}
	}
	for _, el := range order {
		u := units[el]
		id, _ := tr.begin()
		end := tr.at(u.end)
		tr.add(span{ID: id, Parent: parent, Req: req, Name: "sim.unit", Start: end - int64(el)*int64(u.lanes), End: end})
	}
}

// stream is fabric-stream: nproc closed-loop clients submitting 16-job
// sweeps to an in-process vliwfabric-equivalent.
type stream struct {
	in   *inputs
	root string
	tr   *tracer
	stk  *stack
}

func newStream(in *inputs, root string, tr *tracer) (*stream, error) {
	s := &stream{in: in, root: root, tr: tr}
	stk, err := startStack(filepath.Join(root, "coord"), nil, tr)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	s.stk = stk
	return s, nil
}

// storeOf returns fabric-stream's coordinator store; nil for the
// in-process workloads, whose store traffic the timing wrapper sees.
func storeOf(i instance) *resultstore.Store {
	if s, ok := i.(*stream); ok {
		return s.stk.store
	}
	return nil
}

func (s *stream) close() {
	s.stk.close()
	os.RemoveAll(s.root)
}

func (s *stream) measure(ctx context.Context, d time.Duration) (*phase, error) {
	return runClients(ctx, s.stk, s.in, sweep.PoolSize(0), d, streamMinReqs, s.tr)
}

// runClients drives the closed loop: each client takes the next
// request, submits it and waits for every result before taking
// another. It stops taking requests once d has passed and at least
// minReqs were taken, or the prepared requests run out.
func runClients(ctx context.Context, stk *stack, in *inputs, clients int, d time.Duration, minReqs int, tr *tracer) (*phase, error) {
	ph := &phase{workers: len(stk.workers), before: vliwmt.Metrics()}
	client := vliwmt.NewClient(stk.url)
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				q := int(next.Add(1) - 1)
				if q >= len(in.reqs) || (q >= minReqs && time.Since(start) >= d) {
					return
				}
				r, err := submit(ctx, client, in, q, tr)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					ph.reqs = append(ph.reqs, r)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.after = vliwmt.Metrics()
	if firstErr != nil {
		return nil, firstErr
	}
	return ph, ctx.Err()
}

// submit sends request q through the client and waits for its results.
func submit(ctx context.Context, client *vliwmt.Client, in *inputs, q int, tr *tracer) (request, error) {
	idx := in.reqs[q]
	jobs := make([]sweep.Job, len(idx))
	for k, u := range idx {
		jobs[k] = in.jobs[u]
		jobs[k].Label = label(q, u)
	}
	id := fmt.Sprintf("q%d", q)
	root, t0 := tr.begin()
	if tr != nil {
		tr.mark("req:"+id, root)
	}
	arrived := make([]time.Duration, len(jobs))
	start := time.Now()
	results, err := client.SweepJobs(ctx, jobs, &vliwmt.SweepOptions{
		Progress: func(_, _ int, r sweep.Result) { arrived[r.Index] = time.Since(start) },
	})
	lat := time.Since(start)
	tr.end(root, 0, "client.request", id, t0)
	if err != nil {
		return request{}, fmt.Errorf("request %s: %w", id, err)
	}
	r := request{id: id, q: q, latency: lat, results: results}
	seen := map[int]bool{}
	for k, res := range results {
		u := idx[k]
		r.got = append(r.got, delivery{u: u, res: res.Res, err: res.Err, elapsed: res.Elapsed,
			cached: res.Cached, fresh: !res.Cached && !seen[u], latency: arrived[k]})
		seen[u] = true
	}
	return r, nil
}

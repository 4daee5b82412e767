package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/cache"
	"vliwmt/internal/compiler"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

// Replay sizes: enough calls that each per-call time is a mean over
// milliseconds of work.
const (
	replayKernels  = 24      // distinct kernels generated, compiled and planned
	replayAccesses = 1 << 18 // data addresses replayed through cache.Access
	replaySelects  = 1 << 16 // candidate sets per scheme for merge selection
	replayStore    = 64      // jobs replayed through the coordinator store
)

// counts are the modelled counts of a fixed amount of work: one sweep
// for the in-process workloads, the exact-count pass for
// fabric-stream. They are deterministic, so two runs of one seed must
// agree on every field.
type counts struct {
	Jobs         int     `json:"jobs"`
	Cycles       int64   `json:"cycles"`
	Instrs       int64   `json:"instrs"`
	Empty        int64   `json:"empty_cycles"`
	DAccesses    int64   `json:"d_accesses"`
	DMisses      int64   `json:"d_misses"`
	IAccesses    int64   `json:"i_accesses"`
	IMisses      int64   `json:"i_misses"`
	StallMem     int64   `json:"stall_mem"`
	ThreadCycles int64   `json:"thread_cycles"`
	Scheduled    int64   `json:"scheduled"`
	Conflict     int64   `json:"conflict"`
	MergeHist    []int64 `json:"merge_hist"`
	SimCycles    int64   `json:"sim_cycles_total"`
	StoreHits    int64   `json:"store_hits"`
	StoreMisses  int64   `json:"store_misses"`
	BytesWritten int64   `json:"store_bytes_written"`
	Repeats      int     `json:"repeat_slots"`
	Slots        int     `json:"slots"`
}

// countOf sums the modelled counts of the results simulated in reqs.
func countOf(reqs []request, before, after vliwmt.MetricsSnapshot) counts {
	var c counts
	for _, r := range reqs {
		for _, d := range r.got {
			c.Slots++
			if !d.fresh || d.res == nil {
				continue
			}
			c.add(d.res)
		}
	}
	c.SimCycles = delta(before, after, "sim_cycles_total")
	c.StoreHits = delta(before, after, "store_hits_total")
	c.StoreMisses = delta(before, after, "store_misses_total")
	c.BytesWritten = delta(before, after, "store_bytes_written_total")
	return c
}

func (c *counts) add(r *sim.Result) {
	c.Jobs++
	c.Cycles += r.Cycles
	c.Instrs += r.Instrs
	c.Empty += r.EmptyCycles
	c.DAccesses += r.DCache.Accesses
	c.DMisses += r.DCache.Misses
	c.IAccesses += r.ICache.Accesses
	c.IMisses += r.ICache.Misses
	c.ThreadCycles += r.Cycles * int64(len(r.Threads))
	for _, t := range r.Threads {
		c.StallMem += t.StallMem
		c.Scheduled += t.ScheduledCycles
		c.Conflict += t.ConflictCycles
	}
	for len(c.MergeHist) < len(r.MergeHist) {
		c.MergeHist = append(c.MergeHist, 0)
	}
	for k, n := range r.MergeHist {
		c.MergeHist[k] += n
	}
}

func delta(before, after vliwmt.MetricsSnapshot, name string) int64 {
	return after.Counter(name) - before.Counter(name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// childGaps returns, for every span named parent, its duration minus
// the duration of its child named child, when it has exactly one.
func childGaps(spans []span, parent, child string, unit time.Duration) []float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == parent && len(kids[s.ID]) == 1 {
			out = append(out, float64(s.dur()-kids[s.ID][0].dur())/float64(unit))
		}
	}
	return out
}

// benchNames lists the distinct benchmark names of the jobs the phase
// simulated, in first-seen order, at most n.
func benchNames(in *inputs, reqs []request, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range reqs {
		for _, d := range r.got {
			for _, b := range in.jobs[d.u].Benchmarks {
				if !seen[b] && len(out) < n {
					seen[b] = true
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// frontEnd replays name -> IR -> compile -> plan for the workload's
// kernels and returns the mean milliseconds per kernel of each step,
// plus the compiled programs for the cache and merge replays.
func frontEnd(tr *tracer, names []string) (gen, comp, plan float64, progs []*program.Program, err error) {
	m := isa.Default()
	var tg, tc, tp time.Duration
	for _, n := range names {
		id, s0 := tr.begin()
		t0 := time.Now()
		b, err := workload.ByName(n)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		f := b.Build()
		t1 := time.Now()
		tr.end(id, 0, "wgen.generate", "replay", s0)
		id, s0 = tr.begin()
		p, err := compiler.Compile(f, compiler.Options{Machine: m, Unroll: b.Unroll})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		t2 := time.Now()
		tr.end(id, 0, "compiler.compile", "replay", s0)
		id, s0 = tr.begin()
		_ = program.NewPlan(p)
		t3 := time.Now()
		tr.end(id, 0, "program.plan", "replay", s0)
		tg += t1.Sub(t0)
		tc += t2.Sub(t1)
		tp += t3.Sub(t2)
		progs = append(progs, p)
	}
	k := float64(len(names)) * float64(time.Millisecond)
	return float64(tg) / k, float64(tc) / k, float64(tp) / k, progs, nil
}

// cacheReplay replays the programs' own data-address streams, produced
// by program.Walker, through a default-configured cache.Access and
// returns host nanoseconds per access.
func cacheReplay(tr *tracer, progs []*program.Program) (float64, error) {
	addrs := make([]uint64, 0, replayAccesses)
	writes := make([]bool, 0, replayAccesses)
	for i := 0; len(addrs) < replayAccesses; i++ {
		w := program.NewWalker(progs[i%len(progs)], uint64(i+1), 0, uint64(i%len(progs))<<32)
		for k := 0; k < 4096 && len(addrs) < replayAccesses; k++ {
			for _, a := range w.Retire().Mem {
				addrs = append(addrs, a.Addr)
				writes = append(writes, a.Store)
			}
		}
		if i > 1<<20 {
			return 0, fmt.Errorf("cache replay: programs make no data accesses")
		}
	}
	c, err := cache.New(cache.DefaultConfig())
	if err != nil {
		return 0, err
	}
	id, s0 := tr.begin()
	t0 := time.Now()
	for i, a := range addrs {
		c.Access(a, writes[i])
	}
	el := time.Since(t0)
	tr.end(id, 0, "cache.access", "replay", s0)
	return float64(el) / float64(len(addrs)), nil
}

// mergeReplay times the workload's schemes on candidate sets built from
// its programs' instruction occupancies: packed selection (the batched
// core's path) and plain Compiled.Select. It returns ns per selection.
func mergeReplay(tr *tracer, schemes []string, progs []*program.Program) (packed, plain float64, err error) {
	comp, err := paperSchemeTrees(schemes)
	if err != nil {
		return 0, 0, err
	}
	m := isa.Default()
	lim, ok := merge.PackLimits(&m)
	if !ok {
		return 0, 0, fmt.Errorf("merge replay: default machine is not packable")
	}
	var occs []isa.Occupancy
	for _, p := range progs {
		for _, in := range program.NewPlan(p).Instrs {
			occs = append(occs, in.Occ)
		}
	}
	dict := make([]merge.PackedOcc, len(occs))
	for i := range occs {
		if dict[i], ok = merge.PackOcc(&occs[i]); !ok {
			return 0, 0, fmt.Errorf("merge replay: occupancy %d is not packable", i)
		}
	}
	const ports = 4
	ids := make([]int32, replaySelects*ports)
	rng := mix64(uint64(len(occs)))
	for i := range ids {
		rng = mix64(rng)
		ids[i] = int32(rng % uint64(len(occs)))
	}
	cands := make([]isa.Occupancy, ports)
	var sink uint32
	var tPacked, tPlain time.Duration
	for _, c := range comp {
		valid := uint32(1)<<c.Ports() - 1
		id, s0 := tr.begin()
		t0 := time.Now()
		for i := 0; i < replaySelects; i++ {
			mask, _ := c.SelectPacked(dict, &lim, ids[i*ports:(i+1)*ports], valid)
			sink += mask
		}
		tPacked += time.Since(t0)
		tr.end(id, 0, "merge.select_packed", "replay", s0)
		id, s0 = tr.begin()
		t0 = time.Now()
		for i := 0; i < replaySelects; i++ {
			for p := 0; p < ports; p++ {
				cands[p] = occs[ids[i*ports+p]]
			}
			sink += c.Select(&m, cands, valid).Mask
		}
		tPlain += time.Since(t0)
		tr.end(id, 0, "merge.select", "replay", s0)
	}
	_ = sink
	n := float64(len(comp) * replaySelects)
	return float64(tPacked) / n, float64(tPlain) / n, nil
}

// apiReplay encodes and decodes each request's terminal status document
// in the v3 wire format, as a server and client would, and returns the
// per-document p50 encode and decode microseconds and p50 size.
func apiReplay(tr *tracer, reqs []request) (enc, dec, size float64, err error) {
	var encs, decs, sizes []float64
	for _, r := range reqs {
		st := api.SweepStatus{Version: api.Version, ID: r.id, State: api.StateDone,
			Done: len(r.results), Total: len(r.results), Results: api.ResultsFrom(r.results)}
		var buf bytes.Buffer
		id, s0 := tr.begin()
		t0 := time.Now()
		if err := api.EncodeSweepStatus(&buf, st); err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		tr.end(id, 0, "api.encode", r.id, s0)
		sizes = append(sizes, float64(buf.Len()))
		id, s0 = tr.begin()
		t2 := time.Now()
		if _, err := api.DecodeSweepStatus(&buf); err != nil {
			return 0, 0, 0, err
		}
		t3 := time.Now()
		tr.end(id, 0, "api.decode", r.id, s0)
		encs = append(encs, float64(t1.Sub(t0))/1e3)
		decs = append(decs, float64(t3.Sub(t2))/1e3)
	}
	return percentile(encs, 0.5), percentile(decs, 0.5), percentile(sizes, 0.5), nil
}

// storeReplay times Get and Put on the coordinator's store for up to
// replayStore of the phase's jobs, each already stored: the probe a
// repeat costs and the write a fresh result costs.
func storeReplay(tr *tracer, store *resultstore.Store, in *inputs, reqs []request) (get, put []float64, err error) {
	n := 0
	for _, r := range reqs {
		for _, d := range r.got {
			if n >= replayStore || d.res == nil {
				continue
			}
			n++
			j := in.jobs[d.u]
			id, s0 := tr.begin()
			t0 := time.Now()
			store.Get(j)
			get = append(get, float64(time.Since(t0))/1e3)
			tr.end(id, 0, "resultstore.get", r.id, s0)
			id, s0 = tr.begin()
			t0 = time.Now()
			if err := store.Put(j, d.res, d.elapsed); err != nil {
				return nil, nil, err
			}
			put = append(put, float64(time.Since(t0))/1e3)
			tr.end(id, 0, "resultstore.put", r.id, s0)
		}
	}
	return get, put, nil
}

// serviceReplay sends an in-process workload's last sweep through the
// vliwfabric path: its results are stored where both workers can serve
// them, and one client request fetches every job through the front
// server, the coordinator and the shard round trips. It measures what
// the service layers add for this workload's result set without
// simulating again.
func serviceReplay(ctx context.Context, tr *tracer, in *inputs, last request, root string) (*phase, error) {
	dir := filepath.Join(root, "service")
	defer os.RemoveAll(dir)
	ws := resultstore.Open(filepath.Join(dir, "workers"))
	for _, d := range last.got {
		if d.res != nil {
			if err := ws.Put(in.jobs[d.u], d.res, d.elapsed); err != nil {
				return nil, err
			}
		}
	}
	stk, err := startStack(filepath.Join(dir, "coord"), ws, tr)
	if err != nil {
		return nil, err
	}
	defer stk.close()
	one := &inputs{jobs: in.jobs, reqs: [][]int{last.reqIndices()}}
	return runClients(ctx, stk, one, 1, 0, 1, tr)
}

func (r request) reqIndices() []int {
	out := make([]int, len(r.got))
	for i, d := range r.got {
		out[i] = d.u
	}
	return out
}

// unitsOf counts dispatch units from the simulator's counters: one per
// batched execution plus one per job simulated outside a batch.
func unitsOf(before, after vliwmt.MetricsSnapshot) int64 {
	return delta(before, after, "sim_batch_runs_total") +
		delta(before, after, "sim_runs_total") - delta(before, after, "sim_batch_jobs_total")
}

// paperSchemeTrees compiles the workload's tree schemes for the merge
// replay; the IMT/BMT baselines have no tree and are skipped.
func paperSchemeTrees(names []string) ([]*merge.Compiled, error) {
	var out []*merge.Compiled
	for _, n := range names {
		s, err := merge.Resolve(n)
		if err != nil {
			return nil, err
		}
		if s.Tree() != nil {
			out = append(out, merge.Compile(s.Tree()))
		}
	}
	return out, nil
}

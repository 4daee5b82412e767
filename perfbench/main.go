// Command perfbench is vliwmt's end-to-end benchmark. It runs one
// workload from one process, measures it from outside through the
// program's public entry points and hooks, checks every result, and
// prints every metric by name and unit. The last line of its standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs (-trace 0) report the end-to-end metrics;
// traced runs (-trace 1) report the per-layer metrics and write their
// spans to the work directory.
//
// Run it from the repository root through its wrapper, which builds
// it first:
//
//	python3 perfbench/run.py --workload fig10-cold --seed 1 --seconds 25 --trace 0
//
// -bless recomputes the committed expected digests (perfbench/digests.json)
// for the default and held-out seeds, each job cross-checked against refsim.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"vliwmt/internal/resultstore"
)

// layerMap records which end-to-end metric each per-layer metric
// should move, and on which workload.
//
//go:embed layers.json
var layerMapJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// host fingerprints the machine so records from different hosts are
// never compared by absolute number.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: fig10-cold, onemix-perfect or fabric-stream")
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		traceOn = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "directory for stores and trace files")
		blessTo = flag.String("bless", "", "write expected digests for the default and held-out seeds to this file, and exit")
	)
	flag.Parse()
	if *blessTo != "" {
		if err := bless(*blessTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload <%s> -seed n -seconds s -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	// Every run ends well inside the 180-second limit, or fails.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	b := &runCtx{ctx: ctx, w: w, seed: *seed, d: time.Duration(*seconds * float64(time.Second)), root: root, work: *work}
	var res resultLine
	if *traceOn == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runCtx is one invocation.
type runCtx struct {
	ctx  context.Context
	w    workloadSpec
	seed uint64
	d    time.Duration
	root string
	work string
}

// record is printed before the result line: what was run, where, and
// the details behind the metrics.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Samples  map[string]int `json:"samples"`
	Checked  string         `json:"checked_by"`
	Accuracy string         `json:"accuracy"`
	Problems []string       `json:"problems,omitempty"`
	Counts   *counts        `json:"counts,omitempty"`
	Repeat   *float64       `json:"repeat_share,omitempty"`
	Extra    map[string]any `json:"extra,omitempty"`
}

func (r *record) print() {
	b, err := json.Marshal(map[string]any{"record": r})
	if err == nil {
		fmt.Println(string(b))
	}
}

// setupN builds the inputs and a fresh instance at least setupRepeats
// times and for at least setupFor, keeps the last one and returns the
// median set-up time. Sub-millisecond set-ups repeat many times, so
// their median is steady.
func (b *runCtx) setupN() (*inputs, instance, float64, error) {
	var times []float64
	var in *inputs
	var inst instance
	start := time.Now()
	for i := 0; i < setupRepeats || (time.Since(start) < setupFor && i < setupMax); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if in, err = b.w.build(b.seed); err != nil {
			return nil, nil, 0, err
		}
		if inst, err = setup(in, filepath.Join(b.root, fmt.Sprintf("setup%d", i)), nil); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, inst, percentile(times, 0.5), nil
}

// untraced measures the end-to-end metrics.
func (b *runCtx) untraced() (resultLine, error) {
	in, inst, setupS, err := b.setupN()
	if err != nil {
		return resultLine{}, err
	}
	runtime.GC() // start the phase without the set-ups' garbage
	ph, err := inst.measure(b.ctx, b.d)
	inst.close()
	if err != nil {
		return resultLine{}, err
	}
	rec := &record{Workload: b.w.name, Seed: b.seed, Seconds: b.d.Seconds(), Host: fingerprint(), Extra: map[string]any{}}
	v, c, err := b.verify(in, ph, rec)
	if err != nil {
		return resultLine{}, err
	}
	m := endToEnd(ph, v, in.inproc)
	m.set("setup_s", "s", setupS)
	if len(ph.reqs) <= 64 {
		var lat []float64
		for _, r := range ph.reqs {
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		}
		rec.Extra["req_latency_ms"] = lat
	}
	m.set("peak_rss_mb", "MB", peakRSSMB())
	rec.Counts = &c
	rec.print()
	return resultLine{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

// verify runs the correctness gate and the exact-count self-check.
func (b *runCtx) verify(in *inputs, ph *phase, rec *record) (verdict, counts, error) {
	v := check(b.w.name, b.seed, in, ph.reqs)
	rec.Checked = v.checkedBy
	rec.Accuracy = "not reported: the model has no hardware reference, so correctness means agreement with refsim"
	rec.Samples = map[string]int{"requests": len(ph.reqs), "results": v.attempted}
	var c counts
	var cerr error
	if in.inproc {
		// Every sweep of the phase is the same work: its counts must
		// repeat exactly.
		for i, r := range ph.reqs {
			ci := countOf([]request{r}, r.before, r.after)
			ci.BytesWritten = 0 // entries carry wall-clock elapsed, so their size varies
			if i == 0 {
				c = ci
			} else if err := sameCounts(c, ci); err != nil && cerr == nil {
				cerr = fmt.Errorf("sweep %d: %w", i, err)
			}
		}
	} else {
		share := repeatShare(in, ph.reqs)
		rec.Repeat = &share
		cs, err := b.countPasses(in)
		if err != nil {
			return v, c, err
		}
		c, cerr = cs[0], sameCounts(cs[0], cs[1])
	}
	if cerr != nil {
		v.failed = v.attempted
		v.problems = append(v.problems, "exact-count self-check: "+cerr.Error())
	}
	rec.Problems = v.problems
	if len(rec.Problems) > 10 {
		rec.Problems = append(rec.Problems[:10], fmt.Sprintf("... %d more", len(v.problems)-10))
	}
	return v, c, nil
}

// countPasses runs fabric-stream's first countReqs requests twice, each
// time sequentially through one client on a fresh deployment, and
// returns the modelled counts of both passes.
func (b *runCtx) countPasses(in *inputs) ([2]counts, error) {
	var cs [2]counts
	for i := range cs {
		stk, err := startStack(filepath.Join(b.root, fmt.Sprintf("count%d", i)), nil, nil)
		if err != nil {
			return cs, err
		}
		ph, err := runClients(b.ctx, stk, in, 1, 0, countReqs, nil)
		stk.close()
		if err != nil {
			return cs, err
		}
		cs[i] = countOf(ph.reqs, ph.before, ph.after)
		cs[i].BytesWritten = 0
		for q := 0; q < countReqs; q++ {
			for _, rep := range in.repeats[q] {
				if rep {
					cs[i].Repeats++
				}
			}
		}
	}
	return cs, nil
}

// repeatShare is the share of the phase's submitted jobs that repeat a
// job of an earlier request.
func repeatShare(in *inputs, reqs []request) float64 {
	var rep, all int
	for _, r := range reqs {
		for _, x := range in.repeats[r.q] {
			all++
			if x {
				rep++
			}
		}
	}
	return ratio(float64(rep), float64(all))
}

// endToEnd derives the end-to-end metrics of a phase. The in-process
// workloads repeat one sweep, so their throughputs are the median over
// sweeps, steady against a slow sweep on a shared host; fabric-stream's
// concurrent requests have no per-request throughput, so its are totals
// over the phase's wall time. Result latency is taken over the results
// computed for their request: results a store served arrive at once,
// and with them the median would flip between two clusters as the
// share of repeats moves.
func endToEnd(ph *phase, v verdict, inproc bool) metrics {
	okShare := ratio(float64(v.attempted-v.failed), float64(v.attempted))
	var jobs, instrs float64
	var resLat, reqLat, jobRates, instrRates []float64
	for _, r := range ph.reqs {
		reqLat = append(reqLat, float64(r.latency)/float64(time.Millisecond))
		var rj, ri float64
		for _, d := range r.got {
			if !d.cached {
				resLat = append(resLat, d.latency.Seconds())
			}
			if d.err == nil && d.res != nil {
				rj++
			}
			if d.fresh && d.res != nil {
				ri += float64(d.res.Instrs)
			}
		}
		jobs += rj
		instrs += ri
		jobRates = append(jobRates, rj/r.latency.Seconds())
		instrRates = append(instrRates, ri/r.latency.Seconds())
	}
	jobRate, instrRate := jobs/ph.wall.Seconds(), instrs/ph.wall.Seconds()
	if inproc {
		jobRate, instrRate = percentile(jobRates, 0.5), percentile(instrRates, 0.5)
	}
	m := metrics{}
	m.set("jobs_per_s", "jobs/s", jobRate*okShare)
	m.set("sim_minstr_per_s", "Minstr/s", instrRate/1e6)
	m.set("result_latency_p50_s", "s", percentile(resLat, 0.5))
	m.set("req_latency_p50_ms", "ms", percentile(reqLat, 0.5))
	m.set("req_latency_p90_ms", "ms", percentile(reqLat, 0.9))
	return m
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// traced runs the workload untraced and then traced on fresh
// instances, half the measuring time each, reports the per-layer
// metrics from the traced phase and the replays, and records the
// tracing overhead.
func (b *runCtx) traced() (resultLine, error) {
	in, inst, _, err := b.setupN()
	if err != nil {
		return resultLine{}, err
	}
	// The two phases share the run's measuring time.
	half := b.d / 2
	runtime.GC()
	plain, err := inst.measure(b.ctx, half)
	inst.close()
	if err != nil {
		return resultLine{}, err
	}
	tr := newTracer()
	tinst, err := setup(in, filepath.Join(b.root, "traced"), tr)
	if err != nil {
		return resultLine{}, err
	}
	runtime.GC()
	ph, err := tinst.measure(b.ctx, half)
	coordStore := storeOf(tinst)
	if err != nil {
		tinst.close()
		return resultLine{}, err
	}
	rec := &record{Workload: b.w.name, Seed: b.seed, Seconds: b.d.Seconds(), Trace: true, Host: fingerprint(), Extra: map[string]any{}}
	v, c, err := b.verify(in, ph, rec)
	if err != nil {
		tinst.close()
		return resultLine{}, err
	}
	m, err := b.layers(in, ph, c, tr, coordStore)
	tinst.close()
	if err != nil {
		return resultLine{}, err
	}
	pv := check(b.w.name, b.seed, in, plain.reqs)
	base, withTrace := endToEnd(plain, pv, in.inproc), endToEnd(ph, v, in.inproc)
	overhead := map[string]float64{}
	for k, x := range base {
		overhead[k] = ratio(withTrace[k].Value-x.Value, x.Value)
	}
	rec.Counts = &c
	rec.Extra["tracing_overhead"] = overhead
	rec.Extra["untraced"] = base
	rec.Extra["traced"] = withTrace
	spans := tr.snapshot()
	self := map[string]float64{}
	for k, d := range selfTimes(spans) {
		self[k] = d.Seconds()
	}
	rec.Extra["self_s"] = self
	var lm any
	if err := json.Unmarshal(layerMapJSON, &lm); err != nil {
		return resultLine{}, fmt.Errorf("layers.json: %w", err)
	}
	rec.Extra["layer_map"] = lm
	if err := b.writeTrace(rec, spans); err != nil {
		return resultLine{}, err
	}
	rec.print()
	failed := v.failed + pv.failed
	return resultLine{Correct: failed == 0, Attempted: v.attempted + pv.attempted, Failed: failed, Metrics: m}, nil
}

// writeTrace writes the traced run's spans and record to the work directory.
func (b *runCtx) writeTrace(rec *record, spans []span) error {
	path := filepath.Join(b.work, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"record": rec, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	rec.Extra["trace_file"] = path
	return f.Close()
}

// layers derives the per-layer metrics of a traced phase.
func (b *runCtx) layers(in *inputs, ph *phase, c counts, tr *tracer, coordStore *resultstore.Store) (metrics, error) {
	m := metrics{}
	var busy float64
	var accesses int64
	var cycles int64
	for _, r := range ph.reqs {
		for _, d := range r.got {
			if d.fresh && d.res != nil {
				busy += d.elapsed.Seconds()
				accesses += d.res.DCache.Accesses + d.res.ICache.Accesses
				cycles += d.res.Cycles
			}
		}
	}
	wall := ph.wall.Seconds()
	perReq := func(n int64) float64 { return float64(n) / float64(len(ph.reqs)) }
	m.set("sweep.units", "count", perReq(unitsOf(ph.before, ph.after)))
	m.set("sweep.worker_busy_ratio", "ratio", ratio(busy, wall*float64(ph.workers)))
	m.set("sweep.compile_hits", "count", perReq(delta(ph.before, ph.after, "sweep_compile_cache_hits_total")))
	m.set("sweep.compile_misses", "count", perReq(delta(ph.before, ph.after, "sweep_compile_cache_misses_total")))

	gen, comp, plan, progs, err := frontEnd(tr, benchNames(in, ph.reqs, replayKernels))
	if err != nil {
		return nil, err
	}
	m.set("wgen.generate_ms", "ms", gen)
	m.set("compiler.compile_ms", "ms", comp)
	m.set("program.plan_ms", "ms", plan)

	simCycles := delta(ph.before, ph.after, "sim_cycles_total")
	ff := delta(ph.before, ph.after, "sim_fastforward_cycles_total")
	m.set("sim.busy_s", "s", busy)
	m.set("sim.cycles", "count", float64(c.Cycles))
	m.set("sim.instrs", "count", float64(c.Instrs))
	m.set("sim.ns_per_cycle", "ns", ratio(busy*1e9, float64(cycles)))
	m.set("sim.ff_cycle_share", "ratio", ratio(float64(ff), float64(simCycles)))
	m.set("sim.empty_cycle_share", "ratio", ratio(float64(c.Empty), float64(c.Cycles)))
	var issued, width int64
	for k, n := range c.MergeHist {
		if k > 0 {
			issued += n
			width += int64(k) * n
		}
	}
	m.set("sim.merge_width_mean", "threads", ratio(float64(width), float64(issued)))

	accessNS, err := cacheReplay(tr, progs)
	if err != nil {
		return nil, err
	}
	m.set("cache.d_accesses", "count", float64(c.DAccesses))
	m.set("cache.d_miss_rate", "ratio", ratio(float64(c.DMisses), float64(c.DAccesses)))
	m.set("cache.i_miss_rate", "ratio", ratio(float64(c.IMisses), float64(c.IAccesses)))
	m.set("cache.stall_mem_share", "ratio", ratio(float64(c.StallMem), float64(c.ThreadCycles)))
	m.set("cache.access_ns", "ns", accessNS)
	m.set("cache.est_share", "ratio", ratio(accessNS*float64(accesses), busy*1e9))

	packed, plainSel, err := mergeReplay(tr, in.schemes, progs)
	if err != nil {
		return nil, err
	}
	m.set("merge.select_ns", "ns", packed)
	m.set("merge.select_plain_ns", "ns", plainSel)
	m.set("merge.est_share", "ratio", ratio(packed*float64(simCycles-ff), busy*1e9))
	m.set("merge.conflict_share", "ratio", ratio(float64(c.Conflict), float64(c.Scheduled)))

	spans := tr.snapshot()
	get := durations(spans, "resultstore.get", time.Microsecond)
	put := durations(spans, "resultstore.put", time.Microsecond)
	if coordStore != nil {
		if get, put, err = storeReplay(tr, coordStore, in, ph.reqs); err != nil {
			return nil, err
		}
	}
	m.set("resultstore.get_us_p50", "us", percentile(get, 0.5))
	m.set("resultstore.put_us_p50", "us", percentile(put, 0.5))
	m.set("resultstore.hits", "count", float64(c.StoreHits))
	m.set("resultstore.misses", "count", float64(c.StoreMisses))
	m.set("resultstore.bytes_written", "bytes", float64(delta(ph.before, ph.after, "store_bytes_written_total")))

	enc, dec, size, err := apiReplay(tr, ph.reqs)
	if err != nil {
		return nil, err
	}
	m.set("api.encode_us_p50", "us", enc)
	m.set("api.decode_us_p50", "us", dec)
	m.set("api.status_bytes_p50", "bytes", size)

	// The service layers: fabric-stream's own phase, or for an
	// in-process workload a replay of its last sweep through them.
	svc := ph
	if in.inproc {
		if svc, err = serviceReplay(b.ctx, tr, in, ph.reqs[len(ph.reqs)-1], b.root); err != nil {
			return nil, err
		}
		spans = tr.snapshot()
	}
	m.set("server.overhead_ms_p50", "ms", percentile(childGaps(spans, "client.request", "server.execute", time.Millisecond), 0.5))
	m.set("fabric.shards", "count", float64(delta(svc.before, svc.after, "fabric_shards_dispatched_total")))
	m.set("fabric.shard_rtt_ms_p50", "ms", percentile(durations(spans, "fabric.shard", time.Millisecond), 0.5))
	m.set("fabric.dispatch_overhead_ms_p50", "ms", percentile(childGaps(spans, "fabric.shard", "worker.execute", time.Millisecond), 0.5))
	m.set("fabric.jobs_from_store", "count", float64(delta(svc.before, svc.after, "fabric_jobs_from_store_total")))
	m.set("fabric.retries", "count", float64(delta(svc.before, svc.after, "fabric_shards_retried_total")))
	m.set("fabric.steals", "count", float64(delta(svc.before, svc.after, "fabric_shards_stolen_total")))
	return m, checkLayerMap(m)
}

// checkLayerMap requires every reported per-layer metric to have an
// entry in layers.json, and every entry to be reported.
func checkLayerMap(m metrics) error {
	var lm map[string]json.RawMessage
	if err := json.Unmarshal(layerMapJSON, &lm); err != nil {
		return fmt.Errorf("layers.json: %w", err)
	}
	var missing []string
	for k := range m {
		if _, ok := lm[k]; !ok {
			missing = append(missing, k+" (not in layers.json)")
		}
	}
	for k := range lm {
		if _, ok := m[k]; !ok {
			missing = append(missing, k+" (not reported)")
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		return errors.New("layer map: " + strings.Join(missing, ", "))
	}
	return nil
}

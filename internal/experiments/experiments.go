// Package experiments reproduces each table and figure of the paper's
// evaluation. Every simulated driver is split in two: a job list
// (Table1Jobs, Fig4Jobs, Fig6Jobs, Fig10Jobs, Scaling8Jobs) and a pure
// reducer over that list's index-ordered sweep results (Table1, Fig4,
// Fig6, Fig10, Scaling8). The cost-only figures (Fig5, Fig9, Tradeoffs)
// need no simulation.
//
// The package runs nothing itself. NewPlan merges the selected
// figures' job lists into one job set, deduped by result-store key;
// any sweep front end executes it (vliwsweep -figure runs it
// in-process, against a result store or on a remote vliwserve or
// vliwfabric), and Plan.Render reduces the results and renders the
// figures. Results are aggregated by job index, not completion order,
// so the figures are bit-identical at any worker count.
package experiments

import (
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/cost"
	"vliwmt/internal/isa"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// Options scales and seeds the simulation-based experiments.
type Options struct {
	Machine isa.Machine
	ICache  cache.Config
	DCache  cache.Config
	// InstrLimit is the per-thread instruction budget (the paper runs
	// 100M; scaled-down runs converge long before that because the
	// kernels are loops).
	InstrLimit int64
	// Timeslice is the OS scheduling quantum in cycles.
	Timeslice int64
	Seed      uint64
}

// DefaultOptions returns the paper's machine with the default sweep
// budget and timeslice (sweep.Budget: 300k instructions, adequate for
// stable IPC on the synthetic kernels, and a quantum in the paper's
// proportion — Fig4's single-context configuration must rotate through
// all four threads many times per run, exactly as the paper's
// multitasking setup does).
func DefaultOptions() Options {
	o := Options{
		Machine: isa.Default(),
		ICache:  cache.DefaultConfig(),
		DCache:  cache.DefaultConfig(),
		Seed:    1,
	}
	o.InstrLimit, o.Timeslice = sweep.Budget(0, 0)
	return o
}

// Scale adjusts the instruction budget, keeping the timeslice proportional
// (sweep.Budget: 1% of the budget, as in the paper).
func (o Options) Scale(instrLimit int64) Options {
	o.InstrLimit, o.Timeslice = sweep.Budget(instrLimit, 0)
	return o
}

// job expresses one measurement as a sweep job. Every job of a plan
// carries the options seed verbatim — required for the paper's scheme
// identities (C4 vs 3CCC) to hold — and leaves Contexts to the scheme
// (one context for the single-context baseline, the merge tree's ports
// otherwise).
func (o Options) job(label, scheme string, perfect bool, benches ...string) sweep.Job {
	return sweep.Job{
		Label:           label,
		Scheme:          scheme,
		Benchmarks:      benches,
		Machine:         o.Machine,
		ICache:          o.ICache,
		DCache:          o.DCache,
		PerfectMemory:   perfect,
		InstrLimit:      o.InstrLimit,
		TimesliceCycles: o.Timeslice,
		Seed:            o.Seed,
	}
}

// ipcs converts a driver's index-ordered results to IPCs, turning a
// short result set and failed jobs into errors.
func ipcs(rs []sweep.Result, want int) ([]float64, error) {
	if len(rs) != want {
		return nil, fmt.Errorf("experiments: %d results, want %d", len(rs), want)
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		ipc, err := r.IPC()
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		out[i] = ipc
	}
	return out, nil
}

// Table1Row is one benchmark's measured single-thread behaviour next to
// the paper's published values.
type Table1Row struct {
	Name        string
	Class       workload.ILPClass
	Description string
	IPCr, IPCp  float64
	PaperIPCr   float64
	PaperIPCp   float64
}

// Table1Jobs measures IPCr (real caches) and IPCp (perfect memory) for
// every benchmark on a single-thread processor.
func Table1Jobs(o Options) []sweep.Job {
	var jobs []sweep.Job
	for _, b := range workload.Benchmarks() {
		jobs = append(jobs,
			o.job(b.Name+"/real", "", false, b.Name),
			o.job(b.Name+"/perfect", "", true, b.Name))
	}
	return jobs
}

// Table1 reduces Table1Jobs' index-ordered results to Table 1.
func Table1(rs []sweep.Result) ([]Table1Row, error) {
	benches := workload.Benchmarks()
	ipcs, err := ipcs(rs, 2*len(benches))
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, b := range benches {
		rows = append(rows, Table1Row{
			Name: b.Name, Class: b.Class, Description: b.Description,
			IPCr: ipcs[2*i], IPCp: ipcs[2*i+1],
			PaperIPCr: b.PaperIPCr, PaperIPCp: b.PaperIPCp,
		})
	}
	return rows, nil
}

// mixJob expresses "run this Table 2 mix under this scheme" as a sweep
// job; the empty scheme is the single-context baseline.
func (o Options) mixJob(mix workload.Mix, scheme string) sweep.Job {
	label := mix.Name + "/" + scheme
	if scheme == "" {
		label = mix.Name + "/ST"
	}
	return o.job(label, scheme, false, mix.Members[:]...)
}

// Figure4 holds the average SMT IPC at one, two and four hardware threads
// over the nine workloads.
type Figure4 struct {
	SingleThread float64
	TwoThread    float64
	FourThread   float64
}

// Fig4Jobs runs every Table 2 mix single-threaded, on 2-thread SMT
// (1S) and on 4-thread SMT (3SSS).
func Fig4Jobs(o Options) []sweep.Job {
	var jobs []sweep.Job
	for _, mix := range workload.Mixes() {
		jobs = append(jobs, o.mixJob(mix, ""), o.mixJob(mix, "1S"), o.mixJob(mix, "3SSS"))
	}
	return jobs
}

// Fig4 reduces Fig4Jobs' index-ordered results to Figure 4.
func Fig4(rs []sweep.Result) (Figure4, error) {
	mixes := workload.Mixes()
	ipcs, err := ipcs(rs, 3*len(mixes))
	if err != nil {
		return Figure4{}, err
	}
	var f Figure4
	for i := range mixes {
		f.SingleThread += ipcs[3*i]
		f.TwoThread += ipcs[3*i+1]
		f.FourThread += ipcs[3*i+2]
	}
	n := float64(len(mixes))
	f.SingleThread /= n
	f.TwoThread /= n
	f.FourThread /= n
	return f, nil
}

// Fig5 computes Figure 5 (merge control cost versus thread count).
func Fig5(m isa.Machine) ([]cost.ControlPoint, error) {
	return cost.ControlScaling(m, 2, 8)
}

// Figure6Row is one workload's SMT-over-CSMT performance advantage.
type Figure6Row struct {
	Mix         string
	SMT, CSMT   float64
	AdvantagePc float64
}

// Fig6Jobs runs every Table 2 mix on 4-thread SMT (3SSS) and 4-thread
// CSMT (3CCC).
func Fig6Jobs(o Options) []sweep.Job {
	var jobs []sweep.Job
	for _, mix := range workload.Mixes() {
		jobs = append(jobs, o.mixJob(mix, "3SSS"), o.mixJob(mix, "3CCC"))
	}
	return jobs
}

// Fig6 reduces Fig6Jobs' index-ordered results to Figure 6: the SMT
// advantage over CSMT per workload, plus the average as the final row.
func Fig6(rs []sweep.Result) ([]Figure6Row, error) {
	mixes := workload.Mixes()
	ipcs, err := ipcs(rs, 2*len(mixes))
	if err != nil {
		return nil, err
	}
	var rows []Figure6Row
	var sum float64
	for i, mix := range mixes {
		smt, csmt := ipcs[2*i], ipcs[2*i+1]
		adv := 100 * (smt - csmt) / csmt
		rows = append(rows, Figure6Row{Mix: mix.Name, SMT: smt, CSMT: csmt, AdvantagePc: adv})
		sum += adv
	}
	rows = append(rows, Figure6Row{Mix: "Average", AdvantagePc: sum / float64(len(mixes))})
	return rows, nil
}

// Fig9 computes Figure 9 (cost of the sixteen schemes).
func Fig9(m isa.Machine) ([]cost.SchemeCost, error) {
	return cost.PaperSchemes(m)
}

// Figure10Row is one workload's IPC under every scheme.
type Figure10Row struct {
	Mix string
	// IPC maps scheme name (plus "1S") to achieved IPC.
	IPC map[string]float64
}

// Fig10Schemes lists the schemes simulated for Figure 10 in display order.
func Fig10Schemes() []string {
	return []string{
		"1S", "3CCC", "C4", "2CC", "2CS",
		"2SC3", "2C3S", "3CCS", "3CSC", "3SCC",
		"3CSS", "3SSC", "3SCS", "2SC", "2SS", "3SSS",
	}
}

// Fig10Jobs runs every scheme on every workload — the paper's largest
// sweep (16 schemes x 9 mixes), mix-major.
func Fig10Jobs(o Options) []sweep.Job {
	var jobs []sweep.Job
	for _, mix := range workload.Mixes() {
		for _, scheme := range Fig10Schemes() {
			jobs = append(jobs, o.mixJob(mix, scheme))
		}
	}
	return jobs
}

// Fig10 reduces Fig10Jobs' index-ordered results to Figure 10. The
// final row holds the per-scheme averages ("Average").
func Fig10(rs []sweep.Result) ([]Figure10Row, error) {
	mixes := workload.Mixes()
	schemes := Fig10Schemes()
	ipcs, err := ipcs(rs, len(mixes)*len(schemes))
	if err != nil {
		return nil, err
	}
	avg := Figure10Row{Mix: "Average", IPC: map[string]float64{}}
	var rows []Figure10Row
	for i, mix := range mixes {
		row := Figure10Row{Mix: mix.Name, IPC: map[string]float64{}}
		for j, scheme := range schemes {
			ipc := ipcs[i*len(schemes)+j]
			row.IPC[scheme] = ipc
			avg.IPC[scheme] += ipc
		}
		rows = append(rows, row)
	}
	for s := range avg.IPC {
		avg.IPC[s] /= float64(len(mixes))
	}
	return append(rows, avg), nil
}

// TradeoffPoint is one scheme in the Figures 11/12 scatter: average IPC
// against hardware cost.
type TradeoffPoint struct {
	Scheme      string
	IPC         float64
	Transistors int
	GateDelays  int
}

// Tradeoffs combines Figure 9 costs with Figure 10 average performance,
// yielding the data of Figures 11 (IPC vs transistors) and 12 (IPC vs gate
// delays). Accepts precomputed Fig10 rows to avoid re-simulation.
func Tradeoffs(m isa.Machine, fig10 []Figure10Row) ([]TradeoffPoint, error) {
	if len(fig10) == 0 {
		return nil, fmt.Errorf("experiments: tradeoffs need Fig10 results")
	}
	avg := fig10[len(fig10)-1]
	if avg.Mix != "Average" {
		return nil, fmt.Errorf("experiments: last Fig10 row is %q, want Average", avg.Mix)
	}
	var pts []TradeoffPoint
	for _, s := range Fig10Schemes() {
		sc, err := cost.ForScheme(m, s)
		if err != nil {
			return nil, err
		}
		pts = append(pts, TradeoffPoint{Scheme: s, IPC: avg.IPC[s], Transistors: sc.Transistors, GateDelays: sc.GateDelays})
	}
	return pts, nil
}

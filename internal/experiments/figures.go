package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"vliwmt/internal/report"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// figure is one selectable table or figure: the jobs it simulates (nil
// for cost-only figures) and how it renders their index-ordered results.
type figure struct {
	name   string
	jobs   func(Options) []sweep.Job
	render func(w io.Writer, o Options, rs []sweep.Result) error
}

// figures lists every selectable figure in render order. Figures 11
// and 12 list Figure 10's jobs again; the plan dedupes them.
var figures = []figure{
	{"table1", Table1Jobs, renderTable1},
	{"table2", nil, renderTable2},
	{"fig4", Fig4Jobs, renderFig4},
	{"fig5", nil, renderFig5},
	{"fig6", Fig6Jobs, renderFig6},
	{"fig9", nil, renderFig9},
	{"fig10", Fig10Jobs, renderFig10},
	{"fig11", Fig10Jobs, renderTradeoff(false)},
	{"fig12", Fig10Jobs, renderTradeoff(true)},
	{"ext8", Scaling8Jobs, renderExt8},
}

// FigureNames lists the selectable figure names in render order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// Plan is the job set behind a selection of figures: the concatenation
// of their job lists, deduped by result-store key, so a job shared by
// several figures (every Figure 4 and 6 job is also a Figure 10 job)
// simulates once.
type Plan struct {
	// Jobs holds the distinct jobs in first-appearance order.
	Jobs []sweep.Job
	opts Options
	figs []figure
	idx  [][]int // per selected figure: the position in Jobs of each of its jobs
}

// NewPlan selects figures by a comma-separated list of FigureNames, or
// "all", and plans their jobs under o. The figures render in
// FigureNames order whatever the order of the selection.
func NewPlan(selection string, o Options) (*Plan, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(FigureNames(), name) {
			return nil, fmt.Errorf("experiments: unknown figure %q (want all or one of %s)", name, strings.Join(FigureNames(), ","))
		}
		want[name] = true
	}
	p := &Plan{opts: o}
	var all []sweep.Job
	var spans [][2]int
	for _, f := range figures {
		if !want["all"] && !want[f.name] {
			continue
		}
		p.figs = append(p.figs, f)
		start := len(all)
		if f.jobs != nil {
			all = append(all, f.jobs(o)...)
		}
		spans = append(spans, [2]int{start, len(all)})
	}
	var err error
	groups := resultstore.GroupByKey(all, func(i int, e error) {
		if err == nil {
			err = fmt.Errorf("experiments: job %s: %w", all[i].Describe(), e)
		}
	})
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(all))
	for g, grp := range groups {
		p.Jobs = append(p.Jobs, all[grp.Indices[0]])
		for _, i := range grp.Indices {
			pos[i] = g
		}
	}
	for _, sp := range spans {
		p.idx = append(p.idx, pos[sp[0]:sp[1]])
	}
	return p, nil
}

// Render reduces the results of Jobs (index-ordered, as every sweep
// front end returns them) to the selected figures and writes them as
// text tables and charts.
func (p *Plan) Render(w io.Writer, results []sweep.Result) error {
	if len(results) != len(p.Jobs) {
		return fmt.Errorf("experiments: %d results for %d planned jobs", len(results), len(p.Jobs))
	}
	for k, f := range p.figs {
		rs := make([]sweep.Result, len(p.idx[k]))
		for i, j := range p.idx[k] {
			rs[i] = results[j]
		}
		if err := f.render(w, p.opts, rs); err != nil {
			return err
		}
	}
	return nil
}

func renderTable1(w io.Writer, _ Options, rs []sweep.Result) error {
	rows, err := Table1(rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 1: benchmarks (measured vs paper) ==")
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Name, r.Class.String(), r.Description,
			report.F(r.IPCr), report.F(r.IPCp),
			report.F(r.PaperIPCr), report.F(r.PaperIPCp)})
	}
	report.Table(w, []string{"benchmark", "ilp", "description", "IPCr", "IPCp", "paper IPCr", "paper IPCp"}, tr)
	fmt.Fprintln(w)
	return nil
}

func renderTable2(w io.Writer, _ Options, _ []sweep.Result) error {
	fmt.Fprintln(w, "== Table 2: workload configurations ==")
	var tr [][]string
	for _, m := range workload.Mixes() {
		tr = append(tr, append([]string{m.Name}, m.Members[:]...))
	}
	report.Table(w, []string{"ilp comb", "thread 0", "thread 1", "thread 2", "thread 3"}, tr)
	fmt.Fprintln(w)
	return nil
}

func renderFig4(w io.Writer, _ Options, rs []sweep.Result) error {
	f, err := Fig4(rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 4: SMT performance vs thread count ==")
	report.BarChart(w, "average IPC over the nine workloads",
		[]string{"Single-thread", "2-Thread SMT (1S)", "4-Thread SMT (3SSS)"},
		[]float64{f.SingleThread, f.TwoThread, f.FourThread}, 48)
	fmt.Fprintf(w, "4-thread over 2-thread advantage: %s (paper: +61%%)\n\n",
		report.Percent(100*(f.FourThread-f.TwoThread)/f.TwoThread))
	return nil
}

func renderFig5(w io.Writer, o Options, _ []sweep.Result) error {
	pts, err := Fig5(o.Machine)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 5: thread merge control cost vs threads ==")
	var tr [][]string
	var lab []string
	var xs, ys []float64
	for _, p := range pts {
		tr = append(tr, []string{fmt.Sprint(p.Threads),
			fmt.Sprint(p.CSMTSerial.Transistors), fmt.Sprint(p.CSMTSerial.GateDelays),
			fmt.Sprint(p.CSMTParallel.Transistors), fmt.Sprint(p.CSMTParallel.GateDelays),
			fmt.Sprint(p.SMT.Transistors), fmt.Sprint(p.SMT.GateDelays)})
		x := float64(p.Threads)
		xs = append(xs, x, x, x)
		ys = append(ys, float64(p.CSMTSerial.Transistors), float64(p.CSMTParallel.Transistors), float64(p.SMT.Transistors))
		lab = append(lab, fmt.Sprintf("SL/%d", p.Threads), fmt.Sprintf("PL/%d", p.Threads), fmt.Sprintf("SMT/%d", p.Threads))
	}
	report.Table(w, []string{"threads", "csmt-sl tr", "delay", "csmt-pl tr", "delay", "smt tr", "delay"}, tr)
	report.Scatter(w, "Figure 5a (log transistors vs threads)", "threads", "transistors", lab, xs, ys, true)
	fmt.Fprintln(w)
	return nil
}

func renderFig6(w io.Writer, _ Options, rs []sweep.Result) error {
	rows, err := Fig6(rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 6: SMT performance advantage over CSMT (4 threads) ==")
	var labels []string
	var values []float64
	var tr [][]string
	for _, r := range rows {
		labels = append(labels, r.Mix)
		values = append(values, r.AdvantagePc)
		if r.Mix == "Average" {
			tr = append(tr, []string{r.Mix, "", "", report.Percent(r.AdvantagePc)})
			continue
		}
		tr = append(tr, []string{r.Mix, report.F(r.SMT), report.F(r.CSMT), report.Percent(r.AdvantagePc)})
	}
	report.Table(w, []string{"workload", "SMT IPC", "CSMT IPC", "advantage"}, tr)
	report.BarChart(w, "advantage (%)", labels, values, 40)
	fmt.Fprintln(w, "(paper: average +27%, maximum +58% on LLHH)")
	fmt.Fprintln(w)
	return nil
}

func renderFig9(w io.Writer, o Options, _ []sweep.Result) error {
	costs, err := Fig9(o.Machine)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 9: merging hardware cost per scheme ==")
	var tr [][]string
	var labels []string
	var delays []float64
	for _, c := range costs {
		tr = append(tr, []string{c.Scheme, fmt.Sprint(c.Transistors), fmt.Sprint(c.GateDelays)})
		labels = append(labels, c.Scheme)
		delays = append(delays, float64(c.GateDelays))
	}
	report.Table(w, []string{"scheme", "transistors", "gate delays"}, tr)
	report.BarChart(w, "gate delays", labels, delays, 40)
	fmt.Fprintln(w)
	return nil
}

func renderFig10(w io.Writer, _ Options, rs []sweep.Result) error {
	rows, err := Fig10(rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 10: merging schemes performance (IPC) ==")
	schemes := Fig10Schemes()
	var tr [][]string
	for _, r := range rows {
		row := []string{r.Mix}
		for _, s := range schemes {
			row = append(row, report.F(r.IPC[s]))
		}
		tr = append(tr, row)
	}
	report.Table(w, append([]string{"workload"}, schemes...), tr)
	fmt.Fprintln(w)
	return nil
}

// renderTradeoff renders Figure 11 (IPC vs transistors) or, with
// delays, Figure 12 (IPC vs gate delays).
func renderTradeoff(delays bool) func(io.Writer, Options, []sweep.Result) error {
	return func(w io.Writer, o Options, rs []sweep.Result) error {
		rows, err := Fig10(rs)
		if err != nil {
			return err
		}
		pts, err := Tradeoffs(o.Machine, rows)
		if err != nil {
			return err
		}
		name := "transistors"
		if delays {
			name = "gate delays"
			fmt.Fprintln(w, "== Figure 12: performance vs gate delays ==")
		} else {
			fmt.Fprintln(w, "== Figure 11: performance vs transistors ==")
		}
		var labels []string
		var xs, ys []float64
		var tr [][]string
		for _, p := range pts {
			labels = append(labels, p.Scheme)
			cost := float64(p.Transistors)
			if delays {
				cost = float64(p.GateDelays)
			}
			xs = append(xs, p.IPC)
			ys = append(ys, cost)
			tr = append(tr, []string{p.Scheme, report.F(p.IPC), fmt.Sprint(p.Transistors), fmt.Sprint(p.GateDelays)})
		}
		report.Table(w, []string{"scheme", "avg IPC", "transistors", "gate delays"}, tr)
		report.Scatter(w, "IPC (x) vs "+name+" (y)", "IPC", name, labels, xs, ys, false)
		fmt.Fprintln(w, strings.Repeat("-", 70))
		return nil
	}
}

func renderExt8(w io.Writer, o Options, rs []sweep.Result) error {
	rows, err := Scaling8(o.Machine, rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Extension: 8 hardware threads (beyond the paper) ==")
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Scheme, r.Structure, report.F(r.IPC),
			fmt.Sprint(r.Transistors), fmt.Sprint(r.GateDelays)})
	}
	report.Table(w, []string{"scheme", "structure", "IPC", "transistors", "gate delays"}, tr)
	fmt.Fprintln(w)
	return nil
}

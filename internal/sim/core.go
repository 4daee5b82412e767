package sim

import (
	"fmt"
	"math/bits"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
)

// cpu is one run's simulator state: every slice and scalar the cycle
// loop touches is allocated once in newCPU, so the loop itself never
// allocates (see DESIGN.md; TestSteadyStateZeroAllocs enforces it).
//
// Plans: each task's program is flattened once per run into a
// program.Plan, and the run-specific constants are baked into its
// records — the fetch address carries the task's code-segment offset
// and the occupancy ID the run-wide dictionary base — so candidate
// gathering reads one flat record per port.
//
// Layout: the per-task context state (current instruction, readyAt,
// fetched, fetch-slot hint, per-thread stats) lives in flat
// struct-of-arrays slices indexed by task, so the cycle loop walks
// contiguous memory. A finished thread needs no flag: the first thread
// to retire its budget ends the run in that same cycle, so no step,
// schedule or fast-forward ever sees a finished thread.
//
// Counters: the loop bumps only what it cannot derive. Per-thread
// instruction counts come from the walkers, ScheduledCycles is Instrs +
// ConflictCycles, and the run totals are per-thread sums, all filled in
// once by finalize.
//
// Selection: every multi-context run selects on the packed occupancy
// dictionary (merge.SelectPacked) from the gathered dictionary IDs
// alone — the tree schemes answering cluster disjointness and SMT slot
// capacity with a few 64-bit SWAR operations, the IMT/BMT baselines
// picking one port from the candidate mask. A one-context run has no
// merge stage: stepSingle issues the lone thread directly, with no
// selector and no dictionary. It stays a separate loop because routing
// single-thread runs (Table 1) through step measured markedly slower
// (DESIGN.md).
type cpu struct {
	cfg    Config
	m      isa.Machine
	sel    *merge.Compiled // nil for one context
	ic, dc *cache.Cache

	// plans[ti] is task ti's baked plan; plis[ti] is its Instrs, kept
	// as a slice-header array so the gather reaches a PlannedInstr in a
	// single hop.
	plans []*program.Plan
	plis  [][]program.PlannedInstr

	// Per-task context state. fetchSlot[ti] is the I-cache slot of the
	// task's last fetch (cache.Fetch's same-line hint).
	walkers   []*program.Walker
	cur       []int32 // flat plan index of the current instruction
	readyAt   []int64
	fetched   []bool
	fetchSlot []int32
	stats     []ThreadStats

	// OS scheduling state: running maps hardware contexts to task
	// indices (-1 = idle), pool holds the descheduled tasks.
	running []int
	pool    []int
	osRng   rng
	slicing bool
	nCtx    int
	// nextSlice is the next timeslice boundary. The stall fast-forward
	// never jumps past a boundary (nextEvent caps the span there), so
	// the cycle loop visits every boundary exactly and an absolute
	// next-boundary cycle replaces a per-cycle modulo.
	nextSlice int64
	// rotMask is nCtx-1 when nCtx is a power of two (priority rotation
	// by mask instead of division), -1 otherwise.
	rotMask   int64
	fixedPrio bool

	// Per-cycle buffers, reused across every cycle of the run: candID[p]
	// is the dictionary ID of the candidate at merge port p and
	// portTask[p] its task index. Both are written only for ports set in
	// the cycle's valid mask.
	candID   []int32
	portTask []int32

	// pd is the run-wide packed occupancy dictionary and plim the
	// machine's SWAR limit constants; both are set only when sel is.
	pd   []merge.PackedOcc
	plim merge.PackedLimits

	res *Result
	// ffSpans/ffCycles count stall fast-forward jumps and the cycles
	// they skipped. Plain fields bumped inside the loop, flushed to the
	// process-wide telemetry counters once, in finalize.
	ffSpans, ffCycles int64
	finished          bool
}

// newSelector resolves the run's merge control. One context needs no
// merge stage and gets none (nil).
func newSelector(cfg *Config) (*merge.Compiled, error) {
	if cfg.Contexts == 1 {
		return nil, nil
	}
	sch, err := merge.Effective(cfg.Merge, cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if sch.IsZero() {
		return nil, fmt.Errorf("sim: no merge scheme for %d contexts", cfg.Contexts)
	}
	sel, err := sch.Selector(cfg.Contexts)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return sel, nil
}

// newCPU validates cfg and tasks, applies the config defaults and
// builds the run's state: selector, caches, baked plans, packed
// dictionary and the initial OS schedule.
func newCPU(cfg Config, tasks []Task) (*cpu, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("sim: %d contexts", cfg.Contexts)
	}
	if cfg.InstrLimit < 1 {
		return nil, fmt.Errorf("sim: instruction limit %d", cfg.InstrLimit)
	}
	if cfg.TimesliceCycles <= 0 {
		cfg.TimesliceCycles = 1_000_000
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 400 * cfg.InstrLimit
	}
	sel, err := newSelector(&cfg)
	if err != nil {
		return nil, err
	}
	var ic, dc *cache.Cache
	if !cfg.PerfectMemory {
		if ic, err = cache.New(cfg.ICache); err != nil {
			return nil, fmt.Errorf("sim: icache: %w", err)
		}
		if dc, err = cache.New(cfg.DCache); err != nil {
			return nil, fmt.Errorf("sim: dcache: %w", err)
		}
	}
	m := cfg.Machine
	for i, t := range tasks {
		if t.Prog == nil {
			return nil, fmt.Errorf("sim: task %d (%s) has no program", i, t.Name)
		}
		if err := t.Prog.Validate(&m); err != nil {
			return nil, fmt.Errorf("sim: task %s: %w", t.Name, err)
		}
	}

	nt := len(tasks)
	c := &cpu{
		cfg:       cfg,
		m:         m,
		sel:       sel,
		ic:        ic,
		dc:        dc,
		plans:     make([]*program.Plan, nt),
		plis:      make([][]program.PlannedInstr, nt),
		walkers:   make([]*program.Walker, nt),
		cur:       make([]int32, nt),
		readyAt:   make([]int64, nt),
		fetched:   make([]bool, nt),
		fetchSlot: make([]int32, nt),
		stats:     make([]ThreadStats, nt),
		running:   make([]int, cfg.Contexts),
		pool:      make([]int, 0, nt),
		osRng:     rng{s: osSeed(&cfg)},
		slicing:   nt > cfg.Contexts,
		nCtx:      cfg.Contexts,
		nextSlice: cfg.TimesliceCycles,
		rotMask:   -1,
		fixedPrio: cfg.FixedPriority,
		candID:    make([]int32, cfg.Contexts),
		portTask:  make([]int32, cfg.Contexts),
		res: &Result{
			MergeHist:  make([]int64, cfg.Contexts+1),
			IssueWidth: m.TotalIssueWidth(),
		},
	}
	if cfg.Contexts&(cfg.Contexts-1) == 0 {
		c.rotMask = int64(cfg.Contexts - 1)
	}
	// Bake the per-task constants into freshly built plans: the fetch
	// address gets the walker's code-segment offset and the occupancy ID
	// its run-wide dictionary base, removing two lookups and two adds
	// from every port of every simulated cycle.
	var occs int32
	for i, t := range tasks {
		w := newTaskWalker(&cfg, i, t)
		pl := program.NewPlan(t.Prog)
		for j := range pl.Instrs {
			pl.Instrs[j].Addr += w.CodeOffset
			pl.Instrs[j].OccID += occs
		}
		occs += int32(pl.NumOccs)
		c.walkers[i], c.plans[i], c.plis[i] = w, pl, pl.Instrs
		c.stats[i].Name = t.Name
		c.pool = append(c.pool, i)
	}
	if sel != nil {
		// Validated programs on validated machines always pack: counts
		// and limits are bounded by isa.MaxIssueWidth, far below the
		// SWAR byte headroom. A failure here is a broken invariant.
		lim, ok := merge.PackLimits(&m)
		if !ok {
			return nil, fmt.Errorf("sim: internal error: machine %+v does not pack", m)
		}
		c.plim = lim
		c.pd = make([]merge.PackedOcc, occs)
		for i := range c.plis {
			for j := range c.plis[i] {
				pi := &c.plis[i][j]
				if c.pd[pi.OccID], ok = merge.PackOcc(&pi.Occ); !ok {
					return nil, fmt.Errorf("sim: internal error: task %s occupancy %v does not pack", tasks[i].Name, pi.Occ)
				}
			}
		}
	}
	for i := range c.running {
		c.running[i] = -1
	}
	c.schedule()
	return c, nil
}

// run is the cycle loop. It must stay bit-identical to the naive
// reference loop in internal/refsim — the invariants that make its
// shortcuts sound are spelled out in DESIGN.md, and the refsim
// differential tests enforce the equivalence. Each step returns the
// next cycle at which the run's state can change: cycle+1 after an
// active cycle, or the next event after an all-stalled one.
//
//vliw:hotpath
func (c *cpu) run() *Result {
	var cycle int64
	for cycle < c.cfg.MaxCycles {
		var next int64
		if c.nCtx == 1 {
			next = c.stepSingle(cycle)
		} else {
			next = c.step(cycle)
		}
		if c.finished {
			return c.finalize(cycle + 1)
		}
		cycle = next
	}
	return c.finalize(c.cfg.MaxCycles)
}

// schedule returns running tasks to the pool, then draws random
// replacements (the paper picks replacement threads at random for
// fairness).
//
// The pool delete deliberately stays the order-preserving O(n)
// copy-down, not an O(1) swap-remove: the drawn index k comes from the
// OS RNG, so which *task* a draw selects depends on the pool's element
// order. Swap-remove would permute that order, pick different
// replacement threads for the same seed, and break both bit-identical
// reproducibility across versions and the refsim differential oracle.
// The pool holds at most len(tasks) entries and schedule runs once per
// timeslice, so the O(n) delete is irrelevant to throughput.
//
//vliw:hotpath
func (c *cpu) schedule() {
	for ctx, ti := range c.running {
		if ti >= 0 {
			c.pool = append(c.pool, ti)
		}
		c.running[ctx] = -1
	}
	for ctx := 0; ctx < c.nCtx && len(c.pool) > 0; ctx++ {
		k := c.osRng.intn(len(c.pool))
		c.running[ctx] = c.pool[k]
		c.pool = append(c.pool[:k], c.pool[k+1:]...)
	}
}

// nextEvent returns the earliest cycle after now at which a candidate
// can reappear: the soonest readyAt among running threads (a thread
// whose stall already elapsed counts as now+1), the next timeslice
// boundary when descheduled tasks exist, or MaxCycles. Between now and
// that cycle every context stays candidate-free, so the run's state
// cannot change — the fast-forward invariant DESIGN.md spells out.
//
//vliw:hotpath
func (c *cpu) nextEvent(now int64) int64 {
	next := c.cfg.MaxCycles
	if c.slicing && c.nextSlice < next {
		// nextSlice is maintained by step: when this runs it is always
		// the first boundary after now, so no division is needed.
		next = c.nextSlice
	}
	for _, ti := range c.running {
		if ti < 0 {
			continue
		}
		e := c.readyAt[ti]
		if e <= now {
			e = now + 1
		}
		if e < next {
			next = e
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// fastForward bulk-accounts an all-stalled span from cycle to the next
// event and returns that event's cycle. Selectors are pure on empty
// input (Selector contract), so skipping their Select calls cannot
// change later selections.
//
//vliw:hotpath
func (c *cpu) fastForward(cycle int64) int64 {
	next := c.nextEvent(cycle)
	span := next - cycle
	c.res.MergeHist[0] += span
	c.res.EmptyCycles += span
	c.ffSpans++
	c.ffCycles += span
	return next
}

// step advances a multi-context run by one cycle: timeslice
// scheduling, priority rotation, candidate gathering (plan-driven — the
// occupancy ID and fetch address come from the flat PlannedInstr
// record), merge selection, retirement. An all-stalled cycle
// fast-forwards to the next event instead.
//
//vliw:hotpath
func (c *cpu) step(cycle int64) int64 {
	if c.slicing && cycle == c.nextSlice {
		c.schedule()
		c.nextSlice = cycle + c.cfg.TimesliceCycles
	}
	nCtx := c.nCtx
	// Priority rotation: the thread-to-port mapping advances each cycle
	// so every thread takes every position in the merge tree — port p
	// reads context (p + rot) mod nCtx.
	ctx := 0
	if !c.fixedPrio {
		if c.rotMask >= 0 {
			ctx = int(cycle & c.rotMask)
		} else {
			ctx = int(cycle % int64(nCtx))
		}
	}
	var valid uint32
	for p := 0; p < nCtx; p++ {
		ti := c.running[ctx]
		if ctx++; ctx == nCtx {
			ctx = 0
		}
		if ti < 0 || c.readyAt[ti] > cycle {
			continue
		}
		pi := &c.plis[ti][c.cur[ti]]
		if !c.fetched[ti] {
			c.fetched[ti] = true // the line arrives during any stall
			if c.ic != nil && !c.ic.Fetch(pi.Addr, &c.fetchSlot[ti]) {
				pen := int64(c.ic.MissPenalty())
				c.readyAt[ti] = cycle + pen
				c.stats[ti].StallFetch += pen
				continue
			}
		}
		c.candID[p] = pi.OccID
		c.portTask[p] = int32(ti)
		valid |= 1 << uint(p)
	}

	if valid == 0 {
		return c.fastForward(cycle)
	}

	mask, ops := c.sel.SelectPacked(c.pd, &c.plim, c.candID, valid)
	c.res.MergeHist[bits.OnesCount32(mask)]++
	if ops == 0 {
		c.res.EmptyCycles++
	}

	for v := valid &^ mask; v != 0; v &= v - 1 {
		c.stats[c.portTask[bits.TrailingZeros32(v)]].ConflictCycles++
	}
	// Retire in ascending port order: the D-cache sees the accesses in
	// the same order as the reference loop.
	for v := mask; v != 0; v &= v - 1 {
		if c.retireOne(int(c.portTask[bits.TrailingZeros32(v)]), cycle) {
			c.finished = true
		}
	}
	return cycle + 1
}

// stepSingle advances a single-context run by one cycle: with one
// hardware context there is no merge stage (a runnable thread always
// issues alone), and the cycle reduces to fetch, retire and stall
// fast-forward.
//
//vliw:hotpath
func (c *cpu) stepSingle(cycle int64) int64 {
	if c.slicing && cycle == c.nextSlice {
		c.schedule()
		c.nextSlice = cycle + c.cfg.TimesliceCycles
	}
	ti := c.running[0]
	ready := ti >= 0 && c.readyAt[ti] <= cycle
	if ready && !c.fetched[ti] {
		pi := &c.plis[ti][c.cur[ti]]
		c.fetched[ti] = true // the line arrives during any stall
		if c.ic != nil && !c.ic.Fetch(pi.Addr, &c.fetchSlot[ti]) {
			pen := int64(c.ic.MissPenalty())
			c.readyAt[ti] = cycle + pen
			c.stats[ti].StallFetch += pen
			ready = false
		}
	}
	if !ready {
		return c.fastForward(cycle)
	}
	c.res.MergeHist[1]++
	if c.plis[ti][c.cur[ti]].Occ.Ops == 0 {
		c.res.EmptyCycles++
	}
	if c.retireOne(ti, cycle) {
		c.finished = true
	}
	return cycle + 1
}

// retireOne retires task ti's current instruction at cycle, driven by
// its plan: each memory op draws its address from the walker and probes
// the D-cache in program order, then the walker advances past the
// instruction (resolving a block-end branch) — Retire's RNG draw order.
// It updates the thread's op count and stall clock, and reports whether
// the thread hit its instruction budget (ending the run).
//
//vliw:hotpath
func (c *cpu) retireOne(ti int, cycle int64) bool {
	f := c.cur[ti]
	pi := &c.plis[ti][f]
	w := c.walkers[ti]
	var memStall, brStall int64
	for i := range pi.Mem {
		m := &pi.Mem[i]
		addr := w.StreamAddr(m.Stream)
		if c.dc != nil && !c.dc.Access(addr, m.Store) {
			memStall += int64(c.dc.MissPenalty())
		}
	}
	next, taken := w.Advance(c.plans[ti], f)
	c.cur[ti] = next
	c.fetched[ti] = false
	c.stats[ti].Ops += int64(pi.Ops)
	if taken {
		brStall = int64(c.m.BranchPenalty)
	}
	// Both a blocking miss and a squash stall the front end; they
	// overlap, so the thread resumes after the longer of the two.
	stall := memStall
	if brStall > stall {
		stall = brStall
	}
	if stall > 0 {
		c.readyAt[ti] = cycle + 1 + stall
		c.stats[ti].StallMem += memStall
		c.stats[ti].StallBranch += brStall
	}
	return w.Retired >= c.cfg.InstrLimit
}

// finalize closes the run at the given cycle count, deriving the
// counters the cycle loop leaves out: per-thread Instrs (the walkers'
// retire counts) and ScheduledCycles, and the run's Instrs and Ops.
func (c *cpu) finalize(cycles int64) *Result {
	res := c.res
	for i := range c.stats {
		st := &c.stats[i]
		st.Instrs = c.walkers[i].Retired
		st.ScheduledCycles = st.Instrs + st.ConflictCycles
		res.Instrs += st.Instrs
		res.Ops += st.Ops
	}
	res.Cycles = cycles
	res.TimedOut = !c.finished
	if res.Cycles > 0 {
		res.IPC = float64(res.Ops) / float64(res.Cycles)
	}
	res.Threads = append(res.Threads, c.stats...)
	if c.ic != nil {
		res.ICache = c.ic.Stats
	}
	if c.dc != nil {
		res.DCache = c.dc.Stats
	}
	recordRunMetrics(res, c.ffSpans, c.ffCycles)
	return res
}

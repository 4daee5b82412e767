package sim_test

// Jobs that share one task list: a sweep shape (same machine, same
// benchmark list) is a batch of jobs whose tasks point at the same
// compiled programs, handed out by the sweep's compile cache to every
// worker. The sweep runs such jobs concurrently, one sim.Run each, so
// sharing must be invisible: every job's Result must equal a sequential
// run of the same config (and refsim's, where the oracle is consulted).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
)

// runShared runs every config concurrently over one shared task list
// and requires each Result to equal the sequential reference: refsim
// when oracle is true, else a sequential sim.Run of the same config.
func runShared(t *testing.T, cfgs []sim.Config, tasks []sim.Task, oracle bool) {
	t.Helper()
	got := make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sim.Run(cfgs[i], tasks)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("job %d (%s): %v", i, cfg.Scheme, errs[i])
		}
		run := sim.Run
		if oracle {
			run = refsim.Run
		}
		want, err := run(cfg, tasks)
		if err != nil {
			t.Fatalf("job %d (%s): sequential run: %v", i, cfg.Scheme, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d (%s): concurrent run diverged\n got:  %+v\n want: %+v", i, cfg.Scheme, got[i], want)
		}
	}
}

// TestBatchDifferentialPaperMatrix runs all 16 paper schemes, the
// IMT/BMT baselines and a custom tree as one concurrent batch per
// (memory model, seed) cell — contexts and selectors differ across
// jobs — and every job must match the refsim oracle bit for bit.
func TestBatchDifferentialPaperMatrix(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	schemes := append(merge.PaperSchemes4(), "IMT", "BMT", "C(S(T0,T1),T2,T3)")
	for _, perfect := range []bool{true, false} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("perfect=%v/seed=%d", perfect, seed), func(t *testing.T) {
				cfgs := make([]sim.Config, 0, len(schemes))
				for _, scheme := range schemes {
					cfg := sim.DefaultConfig()
					cfg.Scheme = scheme
					cfg.Contexts = schemePorts(t, scheme)
					cfg.PerfectMemory = perfect
					cfg.InstrLimit = 1_500
					cfg.TimesliceCycles = 700
					cfg.Seed = seed
					cfgs = append(cfgs, cfg)
				}
				runShared(t, cfgs, tasks, true)
			})
		}
	}
}

// TestBatchTimeout pins the MaxCycles clamp among concurrent jobs:
// jobs that can never retire their budget must report the oracle's
// truncated cycle count and TimedOut flag, while a normal job sharing
// their tasks finishes untouched.
func TestBatchTimeout(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	stuck := sim.DefaultConfig()
	stuck.Scheme = "3CCC"
	stuck.InstrLimit = 1 << 40 // unreachable
	stuck.MaxCycles = 3_000
	stuck.DCache = cache.Config{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 500}

	ok := sim.DefaultConfig()
	ok.Scheme = "3SSS"
	ok.InstrLimit = 1_000
	runShared(t, []sim.Config{stuck, ok, stuck}, tasks, true)
}

// TestBatchSizeOne: a batch of one job is the unit every sweep job now
// runs as; its lone sim.Run over the shared task list must match the
// refsim oracle exactly too.
func TestBatchSizeOne(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 1_200
	cfg.TimesliceCycles = 500
	runShared(t, []sim.Config{cfg}, tasks, true)
}

// TestBatchRandomConfigs fuzzes heterogeneous batches: random job
// counts, schemes, contexts, budgets, seeds and cache geometries, all
// sharing one task list, each batch run concurrently and checked
// job-for-job against sequential runs.
func TestBatchRandomConfigs(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	r := rand.New(rand.NewSource(1213))
	schemes := []string{"3SSS", "3CCC", "2SC3", "2SS", "2CS", "C4", "1S", "IMT", "BMT", "S(C(T3,T1),C(T2,T0))"}
	iters := 10
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		n := 2 + r.Intn(9)
		cfgs := make([]sim.Config, 0, n)
		for j := 0; j < n; j++ {
			scheme := schemes[r.Intn(len(schemes))]
			contexts := schemePorts(t, scheme)
			if scheme == "IMT" || scheme == "BMT" {
				contexts = []int{2, 4}[r.Intn(2)]
			}
			if r.Intn(8) == 0 {
				contexts, scheme = 1, ""
			}
			cfg := sim.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Contexts = contexts
			cfg.PerfectMemory = r.Intn(2) == 0
			cfg.FixedPriority = r.Intn(4) == 0
			cfg.InstrLimit = int64(200 + r.Intn(1200))
			cfg.TimesliceCycles = int64(100 + r.Intn(900))
			cfg.Seed = r.Uint64()
			if !cfg.PerfectMemory {
				cfg.DCache = cache.Config{Size: 4 << 10, LineSize: 64, Ways: 2, MissPenalty: r.Intn(200)}
			}
			cfgs = append(cfgs, cfg)
		}
		t.Run(fmt.Sprintf("%02d_n%d", i, len(cfgs)), func(t *testing.T) {
			runShared(t, cfgs, tasks, false)
		})
	}
}

// TestBatchSteadyStateZeroAllocs extends the zero-allocs/cycle
// invariant to a batch of jobs sharing one task list: each sim.Run pays
// a fixed setup cost, after which allocations must not grow with
// simulated cycles, whatever the other jobs over the same programs did.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	measure := func(instrs int64) float64 {
		cfgs := make([]sim.Config, 6)
		for i := range cfgs {
			cfg := sim.DefaultConfig()
			cfg.Scheme = []string{"2SC3", "3SSS", "C4"}[i%3]
			cfg.InstrLimit = instrs
			cfg.TimesliceCycles = 1_000
			cfg.Seed = uint64(i + 1)
			cfg.DCache = cache.Config{Size: 8 << 10, LineSize: 64, Ways: 2, MissPenalty: 20}
			cfgs[i] = cfg
		}
		return testing.AllocsPerRun(5, func() {
			for _, cfg := range cfgs {
				if _, err := sim.Run(cfg, tasks); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short := measure(2_000)
	long := measure(12_000)
	if long > short {
		t.Errorf("allocations grow with cycles: %v at 2k instrs, %v at 12k", short, long)
	}
}

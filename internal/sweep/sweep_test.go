package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vliwmt/internal/isa"
	"vliwmt/internal/sim"
	"vliwmt/internal/wgen"
)

// testGrid is a small but non-trivial sweep: 4 schemes x 3 mixes with a
// budget large enough to exercise the OS scheduler and caches.
func testGrid() Grid {
	return Grid{
		Schemes:    []string{"1S", "3CCC", "2SC3", "3SSS"},
		Mixes:      []string{"LLLL", "LLHH", "HHHH"},
		InstrLimit: 10_000,
		Seed:       7,
	}
}

// fingerprint renders every deterministic field of a result set; Elapsed
// is deliberately excluded.
func fingerprint(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", r.Index, r.Job.Describe(), r.Err)
		}
		fmt.Fprintf(&b, "%d %s seed=%d cycles=%d instrs=%d ops=%d ipc=%.12f\n",
			r.Index, r.Job.Label, r.Job.Seed, r.Res.Cycles, r.Res.Instrs, r.Res.Ops, r.Res.IPC)
	}
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	var want string
	for _, workers := range []int{1, 4, 16} {
		results, err := New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint(t, results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different results:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
}

// rendezvousStore is a ResultStore that always misses. Its Get blocks
// until n callers are inside it at once; a caller that waits longer
// than timeout gives up and marks the rendezvous missed, after which
// no caller waits.
type rendezvousStore struct {
	n       int
	timeout time.Duration
	mu      sync.Mutex
	inside  int
	met     chan struct{}
	missed  atomic.Bool
}

func (s *rendezvousStore) Get(Job) (*sim.Result, time.Duration, bool) {
	s.mu.Lock()
	s.inside++
	if s.inside == s.n {
		close(s.met)
	}
	s.mu.Unlock()
	if !s.missed.Load() {
		select {
		case <-s.met:
		case <-time.After(s.timeout):
			s.missed.Store(true)
		}
	}
	s.mu.Lock()
	s.inside--
	s.mu.Unlock()
	return nil, 0, false
}

func (s *rendezvousStore) Put(Job, *sim.Result, time.Duration) error { return nil }

// TestSingleShapeUsesEveryWorker is the structural dispatch test: a
// sweep of one shape (one mix under four schemes) with more jobs than
// workers must keep min(workers, jobs) jobs in flight at once. The
// store's Get only returns promptly once both workers are probing it
// concurrently, which fails if jobs of one shape are serialised onto
// one goroutine.
func TestSingleShapeUsesEveryWorker(t *testing.T) {
	const workers = 2
	jobs, err := Grid{
		Schemes:    []string{"2SC3", "3SSS", "C4", "3CCC"},
		Mixes:      []string{"LLHH"},
		InstrLimit: 2_000,
		Seed:       3,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	store := &rendezvousStore{n: workers, timeout: 5 * time.Second, met: make(chan struct{})}
	e := New(workers)
	e.SetStore(store)
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if store.missed.Load() {
		t.Fatalf("%d jobs of one shape on %d workers never had %d store probes in flight at once", len(jobs), workers, workers)
	}
}

func TestGridSeedModes(t *testing.T) {
	g := testGrid()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, j := range jobs {
		seeds[j.Seed] = true
	}
	if len(seeds) != len(jobs) {
		t.Errorf("derived seeds collide: %d distinct over %d jobs", len(seeds), len(jobs))
	}
	g.SharedSeed = true
	shared, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range shared {
		if j.Seed != 7 {
			t.Errorf("shared-seed job %s got seed %d, want 7", j.Label, j.Seed)
		}
	}
}

// TestBudgetRule pins the default budget/timeslice rule every driver
// shares: 300k instructions, a 1% quantum floored at 1000 cycles, and
// explicit values passed through.
func TestBudgetRule(t *testing.T) {
	for _, c := range []struct{ instr, slice, wantInstr, wantSlice int64 }{
		{0, 0, 300_000, 3_000},
		{1_000_000, 0, 1_000_000, 10_000},
		{20_000, 0, 20_000, 1_000},
		{20_000, 77, 20_000, 77},
	} {
		if i, s := Budget(c.instr, c.slice); i != c.wantInstr || s != c.wantSlice {
			t.Errorf("Budget(%d, %d) = %d, %d; want %d, %d", c.instr, c.slice, i, s, c.wantInstr, c.wantSlice)
		}
	}
	jobs, err := Grid{Schemes: []string{"2SC3"}, Mixes: []string{"LLHH"}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if j := jobs[0]; j.InstrLimit != DefaultInstrLimit || j.TimesliceCycles != 3_000 {
		t.Errorf("zero grid budget %d/%d, want %d/3000", j.InstrLimit, j.TimesliceCycles, DefaultInstrLimit)
	}
}

// TestSchemeIdentitiesUnderSharedSeed checks that the engine preserves
// the paper's functional identities (C4 == 3CCC) when jobs share a seed.
func TestSchemeIdentitiesUnderSharedSeed(t *testing.T) {
	g := Grid{
		Schemes:    []string{"C4", "3CCC"},
		Mixes:      []string{"LLHH"},
		InstrLimit: 10_000,
		Seed:       3,
		SharedSeed: true,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := New(4).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := results[0].IPC()
	b, errB := results[1].IPC()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Errorf("C4 (%.9f) and 3CCC (%.9f) differ under a shared seed", a, b)
	}
}

func TestCompileCacheMemoizes(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(8)
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	compiles, hits := e.Cache().Stats()
	// 3 mixes reference at most 12 distinct benchmarks; 12 jobs x 4
	// threads = 48 lookups in total.
	if compiles > 12 {
		t.Errorf("%d compilations, want at most one per distinct benchmark (12)", compiles)
	}
	if compiles+hits != 48 {
		t.Errorf("compiles+hits = %d, want 48 lookups", compiles+hits)
	}
	// A second sweep on the same engine is fully served from cache.
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	again, _ := e.Cache().Stats()
	if again != compiles {
		t.Errorf("second sweep recompiled: %d -> %d", compiles, again)
	}
}

// TestCompileCacheBounded fills a cache past its bound with distinct
// generated kernels: it must hold at most maxCompileEntries entries,
// and the evicted oldest kernel must recompile to an identical program.
func TestCompileCacheBounded(t *testing.T) {
	m := isa.Default()
	p := wgen.RandomProfile(wgen.NewRand(5), wgen.Low)
	c := NewCompileCache()
	first, err := c.Get(wgen.BenchmarkName(p, 0), m)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= maxCompileEntries; seed++ {
		if _, err := c.Get(wgen.BenchmarkName(p, seed), m); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.entries); n > maxCompileEntries {
		t.Fatalf("cache holds %d entries after %d kernels, bound is %d", n, maxCompileEntries+1, maxCompileEntries)
	}
	compiles, _ := c.Stats()
	again, err := c.Get(wgen.BenchmarkName(p, 0), m)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := c.Stats(); after != compiles+1 {
		t.Errorf("evicted kernel served without recompiling (%d -> %d compiles)", compiles, after)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("recompiled kernel differs from the evicted one")
	}
}

func TestSetCacheSharesAcrossEngines(t *testing.T) {
	g := Grid{Schemes: []string{"3SSS"}, Mixes: []string{"LLLL"}, InstrLimit: 2_000}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompileCache()
	for _, workers := range []int{1, 2} {
		e := New(workers)
		e.SetCache(c)
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	compiles, _ := c.Stats()
	if compiles > 4 {
		t.Errorf("%d compilations across two engines, want at most the mix's 4 benchmarks", compiles)
	}
	if PoolSize(0) < 1 || PoolSize(3) != 3 {
		t.Errorf("PoolSize policy broken: %d, %d", PoolSize(0), PoolSize(3))
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 2_000
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := New(2)
	e.SetProgress(func(done, total int, r Result) {
		if done == 2 {
			cancel()
		}
	})
	results, err := e.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	completed, skipped := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil && r.Res != nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("job %d: unexpected state res=%v err=%v", r.Index, r.Res, r.Err)
		}
	}
	if completed < 2 {
		t.Errorf("%d completed jobs, want at least the 2 that triggered cancel", completed)
	}
	if skipped == 0 {
		t.Error("no job was skipped by cancellation")
	}
}

func TestProgressSerialised(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(8)
	var seen []int
	e.SetProgress(func(done, total int, r Result) {
		if total != len(jobs) {
			t.Errorf("total = %d, want %d", total, len(jobs))
		}
		seen = append(seen, done)
	})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d progress calls, want %d", len(seen), len(jobs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", seen)
		}
	}
}

func TestJobErrorsCollected(t *testing.T) {
	jobs := []Job{
		{Label: "bad", Scheme: "3SSS", Benchmarks: []string{"no-such-bench"},
			Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000},
		{Label: "good", Scheme: "", Benchmarks: []string{"mcf"},
			Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000},
	}
	results, err := New(2).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("want joined error for the failing job")
	}
	if results[0].Err == nil {
		t.Error("failing job has no error")
	}
	if results[1].Err != nil || results[1].Res == nil {
		t.Errorf("good job failed: %v", results[1].Err)
	}
}

// TestJobValidateScheme checks scheme names are validated up front
// with a descriptive error instead of failing deep in the simulator.
func TestJobValidateScheme(t *testing.T) {
	base := Job{Benchmarks: []string{"mcf"}, Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000}

	bad := base
	bad.Scheme = "bogus!"
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "bogus!") {
		t.Errorf("error does not name the scheme: %v", err)
	}

	mismatch := base
	mismatch.Scheme = "2SC3" // merges 4 threads
	mismatch.Contexts = 3
	if err := mismatch.Validate(); err == nil {
		t.Error("scheme/context mismatch accepted")
	}

	for _, scheme := range []string{"", "1S", "2SC3", "C4", "IMT", "BMT"} {
		ok := base
		ok.Scheme = scheme
		if err := ok.Validate(); err != nil {
			t.Errorf("valid scheme %q rejected: %v", scheme, err)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (Grid{Mixes: []string{"no-such-mix"}}).Jobs(); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := (Grid{Schemes: []string{"bogus!"}}).Jobs(); err == nil {
		t.Error("unknown scheme accepted")
	}
	jobs, err := Grid{}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16*9 {
		t.Errorf("default grid has %d jobs, want 144", len(jobs))
	}
	for _, j := range jobs[:3] {
		if j.Machine.Clusters == 0 || j.ICache.Size == 0 || j.InstrLimit == 0 || j.TimesliceCycles == 0 {
			t.Errorf("defaults not applied: %+v", j)
		}
	}
}

package sweep

import (
	"sync"
	"sync/atomic"

	"vliwmt/internal/isa"
	"vliwmt/internal/program"
	"vliwmt/internal/workload"
)

// compileKey identifies one compiled program: both Benchmark names and
// isa.Machine are flat comparable values, so the pair keys a map directly.
type compileKey struct {
	bench   string
	machine isa.Machine
}

// compileEntry memoizes one compilation. The sync.Once serialises the
// compile itself while letting unrelated keys compile concurrently.
type compileEntry struct {
	once sync.Once
	prog *program.Program
	err  error
}

// maxCompileEntries bounds a CompileCache. A long-lived server or fabric
// worker meets an unbounded stream of generated kernel names; past the
// bound the oldest entry is evicted and recompiled on its next use
// (a compile costs about 0.1 ms). Callers already holding an evicted
// entry keep using it.
const maxCompileEntries = 1024

// CompileCache memoizes kernel compilation per (benchmark, machine), so a
// sweep compiles each kernel once no matter how many jobs reference it.
// It holds at most maxCompileEntries kernels, evicting the oldest first.
// Compiled programs are read-only to the simulator and safe to share
// between concurrent jobs. The zero value is not usable; call NewCompileCache.
type CompileCache struct {
	mu      sync.Mutex
	entries map[compileKey]*compileEntry
	order   []compileKey // insertion order, oldest first

	compiles atomic.Int64
	hits     atomic.Int64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: map[compileKey]*compileEntry{}}
}

// shared is the process-wide cache behind SharedCache.
var shared = NewCompileCache()

// SharedCache returns a process-wide compile cache. Sharing is
// semantically transparent — entries are keyed by (benchmark, machine)
// and compiled programs are immutable — so callers running many sweeps
// (the experiments drivers, the public Sweep API) attach it to avoid
// recompiling kernels on every sweep.
func SharedCache() *CompileCache { return shared }

// Get returns the compiled program for the named benchmark on machine m,
// compiling it on first use. Concurrent callers of the same key block on
// one compilation; callers of different keys proceed in parallel.
func (c *CompileCache) Get(bench string, m isa.Machine) (*program.Program, error) {
	key := compileKey{bench: bench, machine: m}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &compileEntry{}
		c.entries[key] = e
		c.order = append(c.order, key)
		if len(c.order) > maxCompileEntries {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		metCompileHits.Inc()
	} else {
		metCompileMisses.Inc()
	}
	e.once.Do(func() {
		c.compiles.Add(1)
		b, err := workload.ByName(bench)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = b.Compile(m)
	})
	return e.prog, e.err
}

// Stats reports how many compilations the cache performed and how many
// lookups it served from memory.
func (c *CompileCache) Stats() (compiles, hits int64) {
	return c.compiles.Load(), c.hits.Load()
}

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Size: 0, LineSize: 64, Ways: 4},
		{Size: 64 << 10, LineSize: 0, Ways: 4},
		{Size: 64 << 10, LineSize: 64, Ways: 0},
		{Size: 64 << 10, LineSize: 48, Ways: 4},   // line not power of two
		{Size: 100, LineSize: 64, Ways: 4},        // not divisible
		{Size: 3 * 64 * 4, LineSize: 64, Ways: 4}, // sets not power of two
		{Size: 64 << 10, LineSize: 64, Ways: 4, MissPenalty: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	// Same line, different word.
	if !c.Access(0x1004, false) {
		t.Error("same-line access missed")
	}
	// Different line.
	if c.Access(0x1040, false) {
		t.Error("next-line access hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses / 2 misses", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 ways, 2 sets, 64B lines => 256 bytes.
	cfg := Config{Size: 256, LineSize: 64, Ways: 2, MissPenalty: 20}
	c := mustNew(t, cfg)
	// Set 0 holds lines with (addr/64)%2 == 0: 0x000, 0x080, 0x100...
	c.Access(0x000, false)
	c.Access(0x080, false)
	c.Access(0x000, false) // touch 0x000: 0x080 becomes LRU
	c.Access(0x100, false) // evicts 0x080
	// Probe in an order whose own fills cannot disturb the answers:
	// both survivors hit first, then the evicted line misses.
	if !c.Access(0x000, false) {
		t.Error("recently used line evicted")
	}
	if !c.Access(0x100, false) {
		t.Error("newly filled line absent")
	}
	if c.Access(0x080, false) {
		t.Error("LRU line not evicted")
	}
}

func TestWritebackCounting(t *testing.T) {
	cfg := Config{Size: 256, LineSize: 64, Ways: 2, MissPenalty: 20}
	c := mustNew(t, cfg)
	c.Access(0x000, true)  // dirty
	c.Access(0x080, false) // clean
	c.Access(0x100, false) // evicts dirty 0x000 -> writeback
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Evicting the two clean lines writes nothing back.
	c.Access(0x180, false) // evicts clean 0x080
	c.Access(0x200, false) // evicts clean 0x100
	if c.Stats.Writebacks != 1 {
		t.Errorf("clean evictions wrote back: writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

// TestDirtyEvictionWriteback checks that a write hit marks a line
// dirty: the line was filled by a read, so only the later write can
// make its eviction count a writeback.
func TestDirtyEvictionWriteback(t *testing.T) {
	cfg := Config{Size: 128, LineSize: 64, Ways: 1, MissPenalty: 20}
	c := mustNew(t, cfg)
	c.Access(0x40, false)
	if !c.Access(0x40, true) {
		t.Fatal("write to resident line missed")
	}
	c.Access(0xc0, false) // same set, direct-mapped: evicts 0x40
	if c.Stats.Writebacks != 1 {
		t.Errorf("eviction of written line recorded %d writebacks, want 1", c.Stats.Writebacks)
	}
}

func TestSteadyStateFitFootprint(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	// 32KB footprint in a 64KB cache: after one pass, no further misses.
	const footprint = 32 << 10
	for a := uint64(0); a < footprint; a += 64 {
		c.Access(a, false)
	}
	missesAfterWarmup := c.Stats.Misses
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Stats.Misses != missesAfterWarmup {
		t.Errorf("fitting footprint missed in steady state: %d extra misses",
			c.Stats.Misses-missesAfterWarmup)
	}
}

func TestThrashingFootprint(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	// 1MB streaming footprint >> 64KB cache: every pass misses every line.
	const footprint = 1 << 20
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	want := int64(2 * footprint / 64)
	if c.Stats.Misses != want {
		t.Errorf("streaming misses = %d, want %d", c.Stats.Misses, want)
	}
}

func TestAssociativityConflicts(t *testing.T) {
	// Direct-mapped cache: two lines mapping to the same set thrash.
	cfg := Config{Size: 128, LineSize: 64, Ways: 1, MissPenalty: 20}
	c := mustNew(t, cfg)
	for i := 0; i < 10; i++ {
		c.Access(0x000, false)
		c.Access(0x080, false) // same set (2 sets: bit 6 selects)
	}
	if c.Stats.Misses != 20 {
		t.Errorf("conflict misses = %d, want 20", c.Stats.Misses)
	}
	// 2-way cache of the same size holds both.
	cfg.Ways = 2
	cfg.Size = 128
	c2 := mustNew(t, cfg)
	for i := 0; i < 10; i++ {
		c2.Access(0x000, false)
		c2.Access(0x080, false)
	}
	if c2.Stats.Misses != 2 {
		t.Errorf("2-way misses = %d, want 2", c2.Stats.Misses)
	}
}

func TestStatsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			c.Access(uint64(r.Intn(1<<20))&^3, r.Intn(4) == 0)
		}
		s := c.Stats
		return s.Misses <= s.Accesses && s.Writebacks <= s.Misses+1 && s.Accesses == 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
	s = Stats{Accesses: 10, Misses: 5}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %g", s.MissRate())
	}
}

func TestMissPenaltyAccessor(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	if c.MissPenalty() != 20 {
		t.Errorf("MissPenalty = %d", c.MissPenalty())
	}
	if c.Config().Size != 64<<10 {
		t.Errorf("Config().Size = %d", c.Config().Size)
	}
}

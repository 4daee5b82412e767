// Package cache models the set-associative instruction and data caches of
// the simulated processor. The paper's configuration is 64KB, 4-way
// set-associative with a flat 20-cycle miss penalty (400MHz core, 50ns
// worst-case DRAM critical-word latency); hits never stall.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the line (block) size in bytes.
	LineSize int
	// Ways is the set associativity.
	Ways int
	// MissPenalty is the thread stall in cycles on a miss.
	MissPenalty int
}

// DefaultConfig returns the paper's cache configuration: 64KB, 4-way,
// 64-byte lines, 20-cycle miss penalty.
func DefaultConfig() Config {
	return Config{Size: 64 << 10, LineSize: 64, Ways: 4, MissPenalty: 20}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: size, line size and ways must be positive: %+v", c)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineSize)
	case c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d is not divisible by ways*line (%d)", c.Size, c.LineSize*c.Ways)
	case c.MissPenalty < 0:
		return fmt.Errorf("cache: negative miss penalty")
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Stats accumulates access counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single write-back, write-allocate, LRU set-associative cache.
// It is a timing model only: no data is stored.
//
// The ways live in flat arrays indexed by slot = set*Ways + way, so a
// set's tags are contiguous. keys[slot] holds the resident line address
// plus one, zero marking an invalid way, so a lookup is one compare per
// way. internal/refsim keeps the original struct-per-line model as the
// oracle this one must match access for access.
type Cache struct {
	cfg       Config
	keys      []uint64 // line address + 1; 0 = invalid
	used      []uint64 // LRU timestamps
	dirty     []bool
	ways      int
	setMask   uint64
	lineShift uint
	clock     uint64
	Stats     Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	slots := nsets * cfg.Ways
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		keys:      make([]uint64, slots),
		used:      make([]uint64, slots),
		dirty:     make([]bool, slots),
		ways:      cfg.Ways,
		setMask:   uint64(nsets - 1),
		lineShift: shift,
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access performs one read (write=false) or write (write=true) and reports
// whether it hit. Misses allocate the line, evicting the LRU way; evicting
// a dirty line counts a writeback.
//
//vliw:hotpath
func (c *Cache) Access(addr uint64, write bool) bool {
	hit, _ := c.access(addr, write)
	return hit
}

// Fetch is Access(addr, false) with a caller-held slot hint: *hint is
// the slot the caller's previous fetch resolved to. When that slot
// still holds addr's line the set search is skipped; otherwise Fetch
// searches as Access does and stores the resolved slot in *hint. A
// line is resident in at most one way of the one set its address maps
// to, so an exact match on the stored line address finds exactly the
// slot the search would, and the LRU and statistics updates are the
// same: Fetch and Access are interchangeable access for access. Any
// in-range *hint is valid, including a stale one.
//
//vliw:hotpath
func (c *Cache) Fetch(addr uint64, hint *int32) bool {
	if h := *hint; c.keys[h] == addr>>c.lineShift+1 {
		c.clock++
		c.Stats.Accesses++
		c.used[h] = c.clock
		return true
	}
	hit, slot := c.access(addr, false)
	*hint = int32(slot)
	return hit
}

// access is Access reporting the slot that ends up holding addr's line.
//
//vliw:hotpath
func (c *Cache) access(addr uint64, write bool) (bool, int) {
	c.clock++
	c.Stats.Accesses++
	key := addr>>c.lineShift + 1
	base := int((key-1)&c.setMask) * c.ways
	set := c.keys[base : base+c.ways]
	for i, k := range set {
		if k == key {
			c.used[base+i] = c.clock
			if write {
				c.dirty[base+i] = true
			}
			return true, base + i
		}
	}
	c.Stats.Misses++
	victim := -1
	for i, k := range set {
		if k == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		used := c.used[base : base+c.ways]
		victim = 0
		for i := 1; i < len(used); i++ {
			if used[i] < used[victim] {
				victim = i
			}
		}
	}
	// Only a resident line is ever dirty: nothing invalidates a line.
	slot := base + victim
	if c.dirty[slot] {
		c.Stats.Writebacks++
	}
	c.keys[slot] = key
	c.used[slot] = c.clock
	c.dirty[slot] = write
	return false, slot
}

// MissPenalty returns the configured miss stall in cycles.
func (c *Cache) MissPenalty() int { return c.cfg.MissPenalty }

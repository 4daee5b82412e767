package refsim

import "vliwmt/internal/cache"

// This file is the oracle's own cache model: the original
// struct-per-line LRU cache, kept independent of internal/cache so the
// differential suites check the production cache as well as the cycle
// loop. Same rules as the rest of the package: keep it boring, never
// optimize it. FuzzCacheMatchesReference holds the two models equal.

type line struct {
	tag   uint64
	used  uint64 // LRU timestamp
	valid bool
	dirty bool
}

// Cache is the reference write-back, write-allocate, LRU
// set-associative cache. It is a timing model only: no data is stored.
type Cache struct {
	cfg       cache.Config
	sets      [][]line
	setMask   uint64
	lineShift uint
	clock     uint64
	Stats     cache.Stats
}

// NewCache builds a reference cache from cfg.
func NewCache(cfg cache.Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways:cfg.Ways], backing[cfg.Ways:]
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), lineShift: shift}, nil
}

// Access performs one read (write=false) or write (write=true) and
// reports whether it hit. Misses allocate the line, evicting the LRU
// way; evicting a dirty line counts a writeback.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.Stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[victim].used {
				victim = i
			}
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
	}
	set[victim] = line{tag: lineAddr, used: c.clock, valid: true, dirty: write}
	return false
}

// MissPenalty returns the configured miss stall in cycles.
func (c *Cache) MissPenalty() int { return c.cfg.MissPenalty }

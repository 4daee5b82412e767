package refsim_test

import (
	"math/rand"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/refsim"
)

// cacheConfigs are the geometries the cache differential covers: the
// paper's cache, direct-mapped, 2-way and 8-way, and tiny caches whose
// few lines force constant evictions and writebacks.
var cacheConfigs = []cache.Config{
	cache.DefaultConfig(),
	{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 20},
	{Size: 2 << 10, LineSize: 32, Ways: 2, MissPenalty: 5},
	{Size: 4 << 10, LineSize: 64, Ways: 8, MissPenalty: 20},
	{Size: 128, LineSize: 64, Ways: 1, MissPenalty: 0},
	{Size: 256, LineSize: 64, Ways: 2, MissPenalty: 20},
	{Size: 512, LineSize: 64, Ways: 8, MissPenalty: 20},
}

// FuzzCacheMatchesReference feeds one seeded stream of addresses and
// read/write flags to the production cache and to refsim's reference
// cache under every configuration in cacheConfigs, and requires the
// same hit/miss answer on every access and equal Stats at the end. Part
// of the reads go through Fetch with one of a few per-thread slot
// hints, as the simulator's instruction fetch does. span bounds the
// address range, so small values keep the stream inside a few sets.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint32(1<<10), uint8(4))
	f.Add(uint64(7), uint32(1<<20), uint8(1))
	f.Add(uint64(42), uint32(300), uint8(0))
	f.Add(uint64(3), uint32(1<<16), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, span uint32, writeEvery uint8) {
		if span == 0 {
			span = 1
		}
		for _, cfg := range cacheConfigs {
			prod, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refsim.NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(seed)))
			var hints [3]int32
			for i := 0; i < 3000; i++ {
				addr := uint64(r.Int63n(int64(span)))
				if r.Intn(8) == 0 {
					addr += 1 << 40 // far range: same sets, new tags
				}
				write := writeEvery != 0 && r.Intn(int(writeEvery)) == 0
				var got bool
				switch k := r.Intn(4); {
				case write || k == 3:
					got = prod.Access(addr, write)
				default:
					got = prod.Fetch(addr, &hints[k])
				}
				if want := ref.Access(addr, write); got != want {
					t.Fatalf("%+v access %d (%#x, write %v): production hit=%v, reference hit=%v",
						cfg, i, addr, write, got, want)
				}
			}
			if prod.Stats != ref.Stats {
				t.Fatalf("%+v: stats diverged: production %+v, reference %+v", cfg, prod.Stats, ref.Stats)
			}
		}
	})
}

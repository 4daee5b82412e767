package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// The default seed and the held-out seed, whose expected digests are
// committed. Every other seed is checked by a refsim cross-check of a
// sample of its jobs and by in-run consistency.
const (
	defaultSeed = 1
	heldOutSeed = 2
	refSample   = 4 // jobs per run re-simulated by refsim when no digest is committed
)

// digestsJSON maps workload -> seed -> per-job digest of the full
// SimResult, indexed like inputs.jobs. `-bless` writes it.
//
//go:embed digests.json
var digestsJSON []byte

type digestFile map[string]map[string][]string

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digest hashes every field of a result. sim.Result carries no
// wall-clock field; Elapsed lives on the sweep result and is excluded.
func digest(r *sim.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // sim.Result is plain data; marshalling cannot fail
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// refDigest re-simulates job j with the independent refsim oracle.
func refDigest(j sweep.Job) (string, error) {
	tasks := make([]sim.Task, 0, len(j.Benchmarks))
	for _, n := range j.Benchmarks {
		b, err := workload.ByName(n)
		if err != nil {
			return "", err
		}
		p, err := b.Compile(j.Machine)
		if err != nil {
			return "", err
		}
		tasks = append(tasks, sim.Task{Name: n, Prog: p})
	}
	cfg := sim.Config{
		Machine: j.Machine, ICache: j.ICache, DCache: j.DCache, PerfectMemory: j.PerfectMemory,
		Contexts: j.EffectiveContexts(), Scheme: j.Scheme, Merge: j.Merge,
		TimesliceCycles: j.TimesliceCycles, InstrLimit: j.InstrLimit, Seed: j.Seed,
	}
	r, err := refsim.Run(cfg, tasks)
	if err != nil {
		return "", err
	}
	return digest(r), nil
}

// verdict is the correctness check of one run.
type verdict struct {
	attempted int
	failed    int
	checkedBy string
	problems  []string
}

// check compares every delivered result against the committed digest
// for this seed, or, without one, against refsim on a sample of jobs;
// in both cases every delivery of one job must carry the same result,
// store-served ones included.
func check(name string, seed uint64, in *inputs, reqs []request) verdict {
	v := verdict{}
	bad := map[int]bool{}
	seen := map[int]string{}
	for _, r := range reqs {
		for _, d := range r.got {
			if d.err != nil || d.res == nil {
				continue
			}
			g := digest(d.res)
			if prev, ok := seen[d.u]; ok && prev != g {
				bad[d.u] = true
				v.problems = append(v.problems, fmt.Sprintf("job %d: deliveries disagree (%s vs %s)", d.u, prev, g))
			}
			seen[d.u] = g
		}
	}
	ds, err := loadDigests()
	if err != nil {
		v.problems = append(v.problems, err.Error())
	}
	if want := ds[name][strconv.FormatUint(seed, 10)]; want != nil {
		v.checkedBy = "committed digests"
		for u, g := range seen {
			if u >= len(want) || want[u] != g {
				bad[u] = true
				v.problems = append(v.problems, fmt.Sprintf("job %d: digest %s does not match the committed one", u, g))
			}
		}
	} else {
		v.checkedBy = "refsim sample"
		for _, u := range sample(seen, seed) {
			ref, err := refDigest(in.jobs[u])
			if err != nil || ref != seen[u] {
				bad[u] = true
				v.problems = append(v.problems, fmt.Sprintf("job %d: refsim %s, measured %s (%v)", u, ref, seen[u], err))
			}
		}
	}
	for _, r := range reqs {
		for _, d := range r.got {
			v.attempted++
			if d.err != nil || d.res == nil || bad[d.u] {
				v.failed++
				if d.err != nil {
					v.problems = append(v.problems, fmt.Sprintf("job %d: %v", d.u, d.err))
				}
			}
		}
	}
	return v
}

// sample picks up to refSample of the delivered jobs, by seed.
func sample(seen map[int]string, seed uint64) []int {
	us := make([]int, 0, len(seen))
	for u := range seen {
		us = append(us, u)
	}
	sort.Ints(us)
	var out []int
	x := mix64(seed ^ 0x5eed)
	for len(out) < refSample && len(us) > 0 {
		x = mix64(x)
		i := int(x % uint64(len(us)))
		out = append(out, us[i])
		us = append(us[:i], us[i+1:]...)
	}
	return out
}

// sameCounts reports the first field on which two count records of
// the same work differ.
func sameCounts(a, b counts) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Errorf("%s: %v then %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return nil
}

// bless computes the expected digests of the default and held-out
// seeds for every workload with the production engine, cross-checks
// every job against refsim, and writes them to path.
func bless(path string) error {
	out := digestFile{}
	for _, w := range workloads {
		out[w.name] = map[string][]string{}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			in, err := w.build(seed)
			if err != nil {
				return err
			}
			results, err := sweep.New(0).Run(context.Background(), in.jobs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			got := make([]string, len(results))
			for i, r := range results {
				got[i] = digest(r.Res)
			}
			if err := refCheckAll(in.jobs, got); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			out[w.name][strconv.FormatUint(seed, 10)] = got
			fmt.Fprintf(os.Stderr, "blessed %s seed %d: %d jobs, refsim agrees\n", w.name, seed, len(got))
		}
	}
	return os.WriteFile(path, encodeDigests(out), 0o644)
}

// encodeDigests writes one line per workload and seed, so a re-bless
// shows in a diff as the seeds whose results changed.
func encodeDigests(d digestFile) []byte {
	var b []byte
	b = append(b, "{\n"...)
	for i, w := range workloads {
		name, _ := json.Marshal(w.name)
		b = append(b, " "...)
		b = append(b, name...)
		b = append(b, ": {\n"...)
		for k, seed := range []uint64{defaultSeed, heldOutSeed} {
			s := strconv.FormatUint(seed, 10)
			list, _ := json.Marshal(d[w.name][s])
			b = append(b, fmt.Sprintf("  %q: %s", s, list)...)
			if k == 0 {
				b = append(b, ',')
			}
			b = append(b, '\n')
		}
		b = append(b, " }"...)
		if i < len(workloads)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	return append(b, "}\n"...)
}

// refCheckAll re-simulates every job with refsim on nproc goroutines.
func refCheckAll(jobs []sweep.Job, got []string) error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < sweep.PoolSize(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ref, err := refDigest(jobs[i])
				if err == nil && ref != got[i] {
					err = fmt.Errorf("job %d (%s): refsim %s, engine %s", i, jobs[i].Describe(), ref, got[i])
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

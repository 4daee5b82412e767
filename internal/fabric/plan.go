package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vliwmt/internal/api"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// unit is one dispatchable simulation: a representative job plus every
// submission index that shares its content key. Duplicate-key jobs
// travel once and fan back to all of their indices on merge.
type unit struct {
	key     string
	job     sweep.Job
	indices []int // ascending submission order
}

// shard is the dispatch granule: a batch of units that travels to one
// worker as a single POST /v1/sweeps?wait=1. IDs are 1-based so a
// zero Shard on a Result still means "ran locally".
type shard struct {
	id    int
	units []*unit
	// attempts counts dispatches so far. Only the goroutine currently
	// holding the shard (popped from a queue, not yet requeued)
	// touches it, so it needs no lock.
	attempts int
}

// dispatch is the per-Run scheduling state: per-worker pending queues,
// the retry requeue list, and the merge target. One condition variable
// covers all state transitions a parked worker loop cares about (work
// requeued, shard finished, worker health changed, context cancelled).
type dispatch struct {
	c        *Coordinator
	ctx      context.Context
	jobs     []sweep.Job
	results  []sweep.Result
	progress sweep.ProgressFunc
	remote   int // pool-size hint forwarded to workers

	mu          sync.Mutex
	cond        *sync.Cond
	queues      [][]*shard // pending, parallel to c.workers
	requeued    []*shard   // retried shards, claimable by any worker
	outstanding int        // shards not yet completed or failed
	done        int        // progress counter, monotonic
}

// plan validates every job, probes the coordinator's store, and groups
// the remaining work into dispatch units by content key. Invalid jobs
// and store hits are resolved here — with progress emitted in
// submission order — and never leave the box.
func (d *dispatch) plan() []*unit {
	groups := resultstore.GroupByKey(d.jobs, d.finish)
	units := make([]*unit, 0, len(groups))
	for _, g := range groups {
		if n := len(g.Indices) - 1; n > 0 {
			metJobsDeduped.Add(int64(n))
		}
		u := &unit{key: g.Key, job: d.jobs[g.Indices[0]], indices: g.Indices}
		if res, elapsed, ok := d.c.store.Get(u.job); ok {
			metJobsFromStore.Add(int64(len(u.indices)))
			d.merge(u, sweep.Result{Res: res, Elapsed: elapsed, Cached: true}, "", 0)
			continue
		}
		units = append(units, u)
	}
	return units
}

// chunkShards batches units into shards of at most per jobs, assigning
// 1-based IDs in unit order.
func chunkShards(units []*unit, per int) []*shard {
	shards := make([]*shard, 0, (len(units)+per-1)/per)
	for len(units) > 0 {
		n := min(per, len(units))
		shards = append(shards, &shard{id: len(shards) + 1, units: units[:n]})
		units = units[n:]
	}
	return shards
}

// workerLoop drains work on behalf of worker wi until the dispatch is
// complete or cancelled.
func (d *dispatch) workerLoop(wi int) {
	w := d.c.workers[wi]
	for {
		sh, stolen := d.next(wi)
		if sh == nil {
			return
		}
		if stolen {
			metShardsStolen.Inc()
		}
		d.attempt(w, sh)
	}
}

// next blocks until worker wi can claim a shard — a requeued retry
// first, then its own queue, then the tail of the longest peer queue
// (the steal) — or until the dispatch completes or is cancelled (nil).
// An unhealthy worker claims nothing; its queue stays stealable.
func (d *dispatch) next(wi int) (sh *shard, stolen bool) {
	w := d.c.workers[wi]
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.outstanding == 0 || d.ctx.Err() != nil {
			return nil, false
		}
		if w.isHealthy() {
			if len(d.requeued) > 0 {
				return popHead(&d.requeued), false
			}
			if len(d.queues[wi]) > 0 {
				return popHead(&d.queues[wi]), false
			}
			if vi := longestQueue(d.queues, wi); vi >= 0 {
				return popTail(&d.queues[vi]), true
			}
		}
		d.cond.Wait()
	}
}

// attempt dispatches one shard to one worker and routes the outcome:
// merge on success, retry-or-fail on error. The attempt's context is
// registered on the worker so marking it unhealthy cancels the
// request (and the worker's wait=1 handler, seeing the disconnect,
// cancels the remote sweep).
func (d *dispatch) attempt(w *worker, sh *shard) {
	actx, cancel := context.WithCancel(d.ctx)
	id := w.track(cancel)
	//vliwvet:allow detpure shard latency feeds the duration histogram only
	start := time.Now()
	metShardsDispatched.Inc()
	rs, err := d.c.runShard(actx, w, sh, d.remote)
	w.untrack(id)
	cancel()
	//vliwvet:allow detpure shard latency feeds the duration histogram only
	metShardLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		d.retryOrFail(sh, err)
		return
	}
	metShardsCompleted.Inc()
	d.completeShard(sh, w, rs)
}

// retryOrFail requeues a failed shard with backoff, or — once the
// retry budget is spent or the sweep cancelled — fails its jobs.
func (d *dispatch) retryOrFail(sh *shard, err error) {
	sh.attempts++
	if d.ctx.Err() != nil || sh.attempts > d.c.opts.MaxRetries {
		metShardsFailed.Inc()
		d.failShard(sh, err)
		return
	}
	metShardsRetried.Inc()
	delay := d.c.backoff(sh.attempts)
	go d.requeueAfter(sh, delay)
}

// requeueAfter puts the shard back on the shared retry queue after the
// backoff delay (immediately on cancellation — the worker loops then
// drain and exit, and Run's final pass marks the jobs).
func (d *dispatch) requeueAfter(sh *shard, delay time.Duration) {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-d.ctx.Done():
	}
	d.mu.Lock()
	d.requeued = append(d.requeued, sh)
	d.mu.Unlock()
	d.cond.Broadcast()
}

// completeShard writes a shard's results back into the sweep: the
// store first (so a concurrent sweep can hit), then the merge in
// index order within each unit.
func (d *dispatch) completeShard(sh *shard, w *worker, rs []sweep.Result) {
	for p, u := range sh.units {
		if r := rs[p]; r.Err == nil && r.Res != nil {
			_ = d.c.store.Put(u.job, r.Res, r.Elapsed)
		}
	}
	d.mu.Lock()
	for p, u := range sh.units {
		d.mergeLocked(u, rs[p], w.name, sh.id)
	}
	d.outstanding--
	d.mu.Unlock()
	d.cond.Broadcast()
}

// failShard marks every not-yet-delivered job of the shard failed.
func (d *dispatch) failShard(sh *shard, err error) {
	d.mu.Lock()
	for _, u := range sh.units {
		d.mergeLocked(u, sweep.Result{
			Err: fmt.Errorf("fabric: shard %d (%d jobs): %w", sh.id, len(u.indices), err),
		}, "", sh.id)
	}
	d.outstanding--
	d.mu.Unlock()
	d.cond.Broadcast()
}

// merge fans one unit's outcome back to every submission index that
// shares its key and emits progress for each.
func (d *dispatch) merge(u *unit, r sweep.Result, workerName string, shardID int) {
	d.mu.Lock()
	d.mergeLocked(u, r, workerName, shardID)
	d.mu.Unlock()
}

func (d *dispatch) mergeLocked(u *unit, r sweep.Result, workerName string, shardID int) {
	for n, idx := range u.indices {
		res := r.Res
		if n > 0 && res != nil {
			// Secondary indices get their own copy so downstream
			// consumers can't alias one simulation result across rows.
			res = copySim(res)
		}
		d.results[idx].Err = r.Err
		deliver(d.results, idx, res, r.Elapsed, r.Cached, workerName, shardID)
		d.done++
		if d.progress != nil {
			d.progress(d.done, len(d.jobs), d.results[idx])
		}
	}
}

// finish resolves one job locally (validation or keying failure) with
// progress, before any dispatch exists.
func (d *dispatch) finish(idx int, err error) {
	d.mu.Lock()
	d.results[idx].Err = err
	d.done++
	if d.progress != nil {
		d.progress(d.done, len(d.jobs), d.results[idx])
	}
	d.mu.Unlock()
}

// copySim deep-copies a simulation result through its wire form.
func copySim(r *sim.Result) *sim.Result {
	c := api.SimResultFrom(*r).Sim()
	return &c
}

// deliver fills one result slot from a merged outcome. On the merge
// hot path: every remote result passes through here once per index.
//
//vliw:hotpath
func deliver(results []sweep.Result, idx int, res *sim.Result, elapsed time.Duration, cached bool, workerName string, shardID int) {
	results[idx].Res = res
	results[idx].Elapsed = elapsed
	results[idx].Cached = cached
	results[idx].Worker = workerName
	results[idx].Shard = shardID
}

// popHead claims the next shard from a queue (FIFO: a worker runs its
// own queue in assignment order).
//
//vliw:hotpath
func popHead(q *[]*shard) *shard {
	sh := (*q)[0]
	*q = (*q)[1:]
	return sh
}

// popTail claims the last shard of a queue (stealers take the tail,
// minimising contention with the owner draining the head).
//
//vliw:hotpath
func popTail(q *[]*shard) *shard {
	n := len(*q) - 1
	sh := (*q)[n]
	*q = (*q)[:n]
	return sh
}

// longestQueue returns the index of the longest non-empty pending
// queue other than skip (the steal victim: the slowest peer is the one
// with the most work left), or -1 when every peer queue is empty. Ties
// break to the lowest index, deterministically.
//
//vliw:hotpath
func longestQueue(queues [][]*shard, skip int) int {
	best, bestLen := -1, 0
	for i := range queues {
		if i != skip && len(queues[i]) > bestLen {
			best, bestLen = i, len(queues[i])
		}
	}
	return best
}

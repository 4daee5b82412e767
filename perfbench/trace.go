package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vliwmt/internal/api"
	"vliwmt/internal/server"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's hooks. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	open  map[string]int64 // pairing key -> id of the span that is still open
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: map[string]int64{}} }

// begin allocates a span ID and notes its start.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), int64(time.Since(t.origin))
}

// end records a span that began at start.
func (t *tracer) end(id, parent int64, name, req string, start int64) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: int64(time.Since(t.origin))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// mark remembers an open span under a pairing key, so spans recorded
// elsewhere (another server's executor) can name it as their parent.
func (t *tracer) mark(key string, id int64) {
	t.mu.Lock()
	t.open[key] = id
	t.mu.Unlock()
}

func (t *tracer) lookup(key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[key]
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes returns each span name's self time: a span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// timedStore wraps a sweep.ResultStore and records a span per call.
type timedStore struct {
	inner  sweep.ResultStore
	tr     *tracer
	req    string
	parent int64
}

func (s *timedStore) Get(j sweep.Job) (*sim.Result, time.Duration, bool) {
	id, t0 := s.tr.begin()
	r, d, ok := s.inner.Get(j)
	s.tr.end(id, s.parent, "resultstore.get", s.req, t0)
	return r, d, ok
}

func (s *timedStore) Put(j sweep.Job, r *sim.Result, d time.Duration) error {
	id, t0 := s.tr.begin()
	err := s.inner.Put(j, r, d)
	s.tr.end(id, s.parent, "resultstore.put", s.req, t0)
	return err
}

// reqOf extracts the request ID from a job label "q<n>/u<m>".
func reqOf(label string) string {
	if i := strings.IndexByte(label, '/'); i > 0 {
		return label[:i]
	}
	return label
}

// shardKey pairs a shard's round trip with the worker sweep that
// served it: the label of its first job and its job count.
func shardKey(firstLabel string, n int) string {
	return "shard:" + firstLabel + "#" + strconv.Itoa(n)
}

// timedExecutor wraps a server executor and records one span per
// sweep it executes. The coordinator's executor span is a child of the
// client request; a worker's is a child of the shard round trip.
func timedExecutor(tr *tracer, name string, inner server.Executor) server.Executor {
	return func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		if len(jobs) == 0 {
			return inner(ctx, jobs, workers, progress)
		}
		req := reqOf(jobs[0].Label)
		id, t0 := tr.begin()
		var parent int64
		if name == "server.execute" {
			parent = tr.lookup("req:" + req)
			tr.mark("exec:req:"+req, id)
		} else {
			parent = tr.lookup(shardKey(jobs[0].Label, len(jobs)))
		}
		res, err := inner(ctx, jobs, workers, progress)
		tr.end(id, parent, name, req, t0)
		return res, err
	}
}

// timedTransport records one span per shard round trip the fabric
// coordinator makes (POST /v1/sweeps?wait=1 to a worker), from the
// request until its response body is consumed.
type timedTransport struct {
	tr    *tracer
	inner http.RoundTripper
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || r.Body == nil {
		return t.inner.RoundTrip(r)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	sreq, err := api.DecodeSweepRequest(bytes.NewReader(body))
	if err != nil || len(sreq.Jobs) == 0 {
		return t.inner.RoundTrip(r)
	}
	first := sreq.Jobs[0].Label
	req := reqOf(first)
	key := shardKey(first, len(sreq.Jobs))
	id, t0 := t.tr.begin()
	t.tr.mark(key, id)
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.tr.end(id, t.tr.lookup("exec:req:"+req), "fabric.shard", req, t0)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, done: func() {
		t.tr.end(id, t.tr.lookup("exec:req:"+req), "fabric.shard", req, t0)
	}}
	return resp, nil
}

// endOnClose ends a span when the response body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.done)
	return err
}

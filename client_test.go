package vliwmt_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vliwmt"
	"vliwmt/internal/fabric"
	"vliwmt/internal/server"
)

// cutter is a ResponseWriter that aborts the connection after limit
// newlines — a mid-stream disconnect as the client sees it.
type cutter struct {
	http.ResponseWriter
	limit int
	lines int
}

func (c *cutter) Write(b []byte) (int, error) {
	if c.lines >= c.limit {
		panic(http.ErrAbortHandler)
	}
	c.lines += strings.Count(string(b), "\n")
	return c.ResponseWriter.Write(b)
}

func (c *cutter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestClientFollowDisconnectFallsBackToPolling cuts the NDJSON event
// stream after two lines: the client must fall back to polling and
// still deliver ordered, complete results with exactly one progress
// callback per job.
func TestClientFollowDisconnectFallsBackToPolling(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			inner.ServeHTTP(&cutter{ResponseWriter: w, limit: 2}, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var calls atomic.Int64
	last := 0
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) {
			calls.Add(1)
			if done != last+1 {
				t.Errorf("progress done=%d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatalf("sweep failed after stream cut: %v", err)
	}
	if n := calls.Load(); n != int64(len(local)) {
		t.Errorf("progress called %d times for %d jobs", n, len(local))
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("results after stream cut differ from in-process run")
	}
}

// TestClientServerRestartFallsBackToPolling simulates a server restart
// window: the event stream dies instantly and the status endpoint
// answers 503 for a while before recovering. The polling fallback must
// ride the 503s out and return complete, ordered results.
func TestClientServerRestartFallsBackToPolling(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	var unavailable atomic.Int64
	unavailable.Store(5) // status calls rejected before "the restart finishes"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/events"):
			panic(http.ErrAbortHandler)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/"):
			if unavailable.Add(-1) >= 0 {
				http.Error(w, "restarting", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		default:
			inner.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	var calls int
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) { calls++ },
	})
	if err != nil {
		t.Fatalf("sweep failed across restart window: %v", err)
	}
	if calls != len(local) {
		t.Errorf("progress called %d times for %d jobs", calls, len(local))
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("results across restart window differ from in-process run")
	}
}

// TestClientSubmitRetriesTransientFailures: the submission POST rides
// out transient 503s with backoff instead of failing the sweep.
func TestClientSubmitRetriesTransientFailures(t *testing.T) {
	g := runnerTestGrid()
	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("submission did not survive transient 503s: %v", err)
	}
	if n := posts.Load(); n != 3 {
		t.Errorf("submission POSTed %d times, want 3 (two 503s then success)", n)
	}
	if len(remote) == 0 {
		t.Fatal("no results")
	}
}

// TestClientSubmitRejectsPermanentFailure: a 400 is not retried.
func TestClientSubmitRejectsPermanentFailure(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var posted atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posted.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer counting.Close()

	_, err := vliwmt.NewClient(counting.URL).Sweep(context.Background(), runnerTestGrid(), nil)
	if err == nil {
		t.Fatal("400 submission reported success")
	}
	if n := posted.Load(); n != 1 {
		t.Errorf("permanent 400 retried: %d POSTs, want 1", n)
	}
}

// TestClientHealth exercises the public Health probe against a live
// server's GET /v1/healthz.
func TestClientHealth(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h, err := vliwmt.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Service != "vliwserve" {
		t.Errorf("health service %q, want vliwserve", h.Service)
	}
	if h.ActiveSweeps != 0 {
		t.Errorf("idle server reports %d active sweeps", h.ActiveSweeps)
	}
}

// TestFabricEndToEnd drives the full public path: a coordinator
// serving the wire API with two vliwserve workers behind it, submitted
// to via Client — results bit-identical to in-process, with
// worker/shard attribution preserved across the wire.
func TestFabricEndToEnd(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	var workers []string
	for i := 0; i < 2; i++ {
		wsrv := server.New(server.Options{})
		wts := httptest.NewServer(wsrv.Handler())
		defer wts.Close()
		defer wsrv.Close()
		workers = append(workers, wts.URL)
	}
	coord, err := fabric.New(fabric.Options{Workers: workers, ShardJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	csrv := server.New(server.Options{Execute: coord.Run, Service: "vliwfabric"})
	defer csrv.Close()
	cts := httptest.NewServer(csrv.Handler())
	defer cts.Close()

	fc := vliwmt.NewClient(cts.URL)
	if h, err := fc.Health(context.Background()); err != nil || h.Service != "vliwfabric" {
		t.Fatalf("coordinator health: %+v, %v", h, err)
	}
	remote, err := fc.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("fabric results differ from in-process run")
	}
	for _, r := range remote {
		if r.Worker == "" || r.Shard == 0 {
			t.Fatalf("job %d lost its attribution over the wire: worker=%q shard=%d",
				r.Index, r.Worker, r.Shard)
		}
	}
}

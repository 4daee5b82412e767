package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"vliwmt"
	"vliwmt/internal/fabric"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/server"
	"vliwmt/internal/sweep"
)

// stack is an in-process vliwfabric deployment on loopback: a front
// server whose executor is a fabric.Coordinator with its own result
// store, fronting two worker servers that each run one engine worker.
type stack struct {
	url     string
	workers []string
	coord   *fabric.Coordinator
	store   *resultstore.Store // the coordinator's
	servers []*server.Server
	https   []*http.Server
	wg      sync.WaitGroup
}

const stackWorkers = 2

// startStack starts the deployment. coordDir roots the coordinator's
// store. workerStore, when set, is shared by both workers (the service
// replay serves a finished sweep's results from it). With a tracer the
// executors and the coordinator's transport are wrapped in timing
// hooks that report to it.
func startStack(coordDir string, workerStore *resultstore.Store, tr *tracer) (*stack, error) {
	s := &stack{}
	for w := 0; w < stackWorkers; w++ {
		opts := server.Options{Workers: 1, Store: workerStore, Service: "vliwserve"}
		if tr != nil {
			opts.Execute = timedExecutor(tr, "worker.execute", runnerExecutor(workerStore))
		}
		addr, err := s.serve(opts)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, addr)
	}
	s.store = resultstore.Open(coordDir)
	fopts := fabric.Options{Workers: s.workers, Store: s.store, RemoteWorkers: 1}
	if tr != nil {
		fopts.HTTPClient = &http.Client{Transport: &timedTransport{tr: tr, inner: http.DefaultTransport}}
	}
	coord, err := fabric.New(fopts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	opts := server.Options{Store: s.store, Execute: coord.Run, Service: "vliwfabric"}
	if tr != nil {
		opts.Execute = timedExecutor(tr, "server.execute", coord.Run)
	}
	addr, err := s.serve(opts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + addr
	return s, nil
}

// runnerExecutor is the worker server's default executor spelled out
// through the public Runner, so the benchmark can time it.
func runnerExecutor(store *resultstore.Store) server.Executor {
	cache := vliwmt.NewCompileCache()
	return func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		r := vliwmt.NewRunner(vliwmt.WithWorkers(workers), vliwmt.WithCache(cache),
			vliwmt.WithProgress(progress), vliwmt.WithStore(store))
		return r.SweepJobs(ctx, jobs)
	}
}

func (s *stack) serve(opts server.Options) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := server.New(opts)
	hs := &http.Server{Handler: srv.Handler()}
	s.servers = append(s.servers, srv)
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return ln.Addr().String(), nil
}

// close stops every server and waits for them to exit.
func (s *stack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.https {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	s.wg.Wait()
	if s.coord != nil {
		s.coord.Close()
	}
}

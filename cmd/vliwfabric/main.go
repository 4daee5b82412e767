// Command vliwfabric runs the distributed sweep coordinator: an
// ordinary vliwserve endpoint whose sweeps execute on a pool of remote
// vliwserve workers instead of the local engine. Jobs are sharded by
// result-store content key, fanned out over the v3 wire format, work-
// stolen between workers, retried with backoff, and merged back in
// index order — bit-identical to a single-box run of the same grid.
//
// Usage:
//
//	vliwfabric -workers 10.0.0.1:8080,10.0.0.2:8080
//	vliwfabric -workers-file workers.txt -results /var/cache/vliwmt
//	vliwsweep -addr coordinator:8080 ...        # submit through it
//
// The coordinator speaks the same endpoints as vliwserve (POST
// /v1/sweeps, NDJSON /events, GET /v1/healthz, GET /metrics with the
// fabric_* instrument families), so every existing client — vliwsweep,
// vliwmt.Client, another coordinator — works unchanged against it.
//
// A workers file lists one address per line; blank lines and
// #-comments are ignored. -results names a shared result store: jobs
// already stored are served from the coordinator without touching a
// worker, and every merged result is written back.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"strings"

	"vliwmt/internal/fabric"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/server"
	"vliwmt/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwfabric: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers     = flag.String("workers", "", "comma-separated worker addresses (host:port or URLs)")
		workersFile = flag.String("workers-file", "", "file with one worker address per line (# comments)")
		results     = flag.String("results", "", "directory for the shared result store (empty: disabled)")
		shardJobs   = flag.Int("shard-jobs", 0, "unique jobs per shard (0: fabric default)")
		retries     = flag.Int("retries", 0, "max re-dispatches per shard (0: fabric default)")
		ping        = flag.Duration("ping", 0, "worker health-probe interval (0: fabric default)")
		debug       = flag.Bool("debug", true, "serve GET /metrics (Prometheus text format) and /debug/pprof/")
		logLevel    = flag.String("log-level", "info", "structured-trace level: debug, info, warn or error (warn drops the sweep lifecycle records)")
		logJSON     = flag.Bool("log-json", false, "emit structured traces as JSON lines instead of text")
	)
	flag.Parse()

	if _, err := telemetry.ConfigureSlog(os.Stderr, *logLevel, *logJSON); err != nil {
		log.Fatal(err)
	}
	pool, err := workerList(*workers, *workersFile)
	if err != nil {
		log.Fatal(err)
	}

	var store *resultstore.Store
	if *results != "" {
		store = resultstore.Open(*results)
	}
	coord, err := fabric.New(fabric.Options{
		Workers:      pool,
		Store:        store,
		ShardJobs:    *shardJobs,
		MaxRetries:   *retries,
		PingInterval: *ping,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	srv := server.New(server.Options{
		Store:        store,
		Execute:      coord.Run,
		Service:      "vliwfabric",
		DisableDebug: !*debug,
	})
	defer srv.Close()
	err = srv.Serve(*addr, func(a net.Addr) {
		log.Printf("listening on http://%s, %d workers: %s", a, len(pool), strings.Join(coord.Workers(), ", "))
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// workerList merges the -workers flag and -workers-file contents into
// one address pool.
func workerList(flat, file string) ([]string, error) {
	var pool []string
	for _, a := range strings.Split(flat, ",") {
		if a = strings.TrimSpace(a); a != "" {
			pool = append(pool, a)
		}
	}
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			pool = append(pool, line)
		}
	}
	if len(pool) == 0 {
		return nil, errors.New("no workers: set -workers or -workers-file")
	}
	return pool, nil
}

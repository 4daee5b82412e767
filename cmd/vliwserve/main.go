// Command vliwserve serves the sweep engine over HTTP: a remote client
// POSTs a scheme x mix grid (or an explicit job set), streams NDJSON
// progress, and fetches deterministically aggregated results. The
// companion client is vliwmt.Client, and `vliwsweep -addr` submits the
// same grids it runs locally.
//
// Usage:
//
//	vliwserve                                  # listen on :8080
//	vliwserve -addr :9090 -workers 8
//	vliwserve -results /var/cache/vliwmt       # serve repeat sweeps from disk
//
// Endpoints (versioned JSON wire format):
//
//	POST   /v1/sweeps             submit (202; ?wait=1 blocks, disconnect cancels)
//	GET    /v1/sweeps             list sweeps
//	GET    /v1/sweeps/{id}         status + results once finished
//	GET    /v1/sweeps/{id}/events  NDJSON progress stream
//	DELETE /v1/sweeps/{id}         cancel
//	GET    /healthz               liveness probe
//	GET    /metrics               Prometheus text format (disable with -debug=false)
//	GET    /debug/pprof/          net/http/pprof      (disable with -debug=false)
//
// All sweeps share one compile cache for the life of the process, and
// results are bit-identical to an in-process run of the same grid and
// seed at any worker count. SIGINT/SIGTERM drain the listener and
// cancel in-flight sweeps.
//
// Structured tracing goes to stderr via log/slog: every sweep logs its
// lifecycle (submitted, cancel requested, terminal) and span-style
// start/finish events tagged with its ID. -log-level debug adds a line
// per job, -log-level warn keeps only warnings and errors, and
// -log-json switches to JSON lines for log shippers.
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"vliwmt/internal/resultstore"
	"vliwmt/internal/server"
	"vliwmt/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwserve: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers  = flag.Int("workers", 0, "default per-sweep worker pool size (0: runtime.NumCPU())")
		results  = flag.String("results", "", "directory for result persistence (empty: disabled)")
		debug    = flag.Bool("debug", true, "serve GET /metrics (Prometheus text format) and /debug/pprof/")
		logLevel = flag.String("log-level", "info", "structured-trace level: debug, info, warn or error (debug adds a line per job; warn drops the sweep lifecycle records)")
		logJSON  = flag.Bool("log-json", false, "emit structured traces as JSON lines instead of text")
	)
	flag.Parse()

	if _, err := telemetry.ConfigureSlog(os.Stderr, *logLevel, *logJSON); err != nil {
		log.Fatal(err)
	}
	opts := server.Options{Workers: *workers, DisableDebug: !*debug}
	if *results != "" {
		opts.Store = resultstore.Open(*results)
	}
	srv := server.New(opts)
	defer srv.Close()
	err := srv.Serve(*addr, func(a net.Addr) { log.Printf("listening on http://%s", a) })
	if err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// finereg-serve runs the simulator as a long-lived HTTP/JSON service. A
// finereg-fleet coordinator uses it unchanged as a worker node: the
// coordinator lists it in -nodes, and the worker knows nothing of the fleet.
//
// Usage:
//
//	finereg-serve [-addr :8321] [-workers N] [-queue 64] [-max-batch 256]
//	              [-cache-dir .finereg-cache] [-no-cache] [-job-timeout 0]
//	              [-progress-every N] [-drain-timeout 30s] [-quiet]
//
// Endpoints:
//
//	POST /v1/jobs              submit one simulation
//	POST /v1/batches           submit a batch (admitted whole or shed whole)
//	GET  /v1/jobs/{id}         job status + result
//	GET  /v1/jobs/{id}/events  SSE lifecycle + progress stream
//	GET  /v1/batches/{id}      batch status
//	GET  /metrics              Prometheus text metrics
//	GET  /healthz              liveness (503 while draining)
//
// Freshly simulated jobs stream in-run `progress` SSE events (simulated
// cycle, CTA launch/retire counts, live sim-cycles/s, op-count deltas)
// sampled every -progress-every simulated cycles; the same samples feed
// the /metrics simulation series (finereg_sim_*). Pass a negative
// -progress-every to disable in-run sampling (finereg_sim_*_total then
// stay 0).
//
// Identical jobs coalesce: in-flight duplicates share one execution, and
// completed ones are answered from the content-addressed cache without
// re-simulation. When the admission queue is full the server sheds with
// 429 + Retry-After rather than queueing unboundedly. SIGINT/SIGTERM
// starts a graceful drain: in-flight simulations get -drain-timeout to
// finish before being stopped cooperatively.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/trace"
)

func main() {
	ef := runner.Flags{WorkersFlag: "workers"}
	ef.Register(flag.CommandLine, ".finereg-cache")
	var (
		addr         = flag.String("addr", ":8321", "listen address")
		queueCap     = flag.Int("queue", serve.DefaultQueueCap, "admission queue capacity (full queue sheds with 429)")
		maxBatch     = flag.Int("max-batch", serve.DefaultMaxBatch, "max jobs per batch request")
		progEvery    = flag.Int64("progress-every", 0, "in-run sample period in simulated cycles (0 = default, negative = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight simulations")
		quiet        = flag.Bool("quiet", false, "suppress the stderr progress line")
	)
	flag.Parse()

	eng := ef.Engine()
	if !*quiet {
		progress := trace.NewProgress(os.Stderr)
		eng.Events = progress
		defer progress.Close()
	}
	srv := serve.New(serve.Config{
		Engine:        eng,
		Workers:       ef.Jobs,
		QueueCap:      *queueCap,
		MaxBatch:      *maxBatch,
		ProgressEvery: *progEvery,
	})
	fmt.Fprintf(os.Stderr, "finereg-serve: cache %s\n", ef.CacheLabel())

	if err := serve.ListenAndDrain(context.Background(), "finereg-serve", *addr, srv, srv.Shutdown, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "finereg-serve: %v\n", err)
		os.Exit(1)
	}
}

// finereg-serve runs the simulator as a long-lived HTTP/JSON service —
// standalone, or as a worker node of a finereg-fleet coordinator.
//
// Usage:
//
//	finereg-serve [-addr :8321] [-workers N] [-queue 64] [-max-batch 256]
//	              [-cache-dir .finereg-cache] [-no-cache] [-job-timeout 0]
//	              [-progress-every N] [-quiet]
//	              [-coordinator http://host:port] [-advertise http://host:port]
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
//
// Worker mode: with -coordinator set, the server mounts the coordinator
// as its cache's remote tier (mem -> disk -> coordinator; a result
// computed anywhere in the fleet is a local hit) and announces itself to
// the coordinator every -announce-every as -advertise (derived from
// -addr when unset: ":8322" advertises "http://127.0.0.1:8322").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"finereg/internal/fleet"
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
		coordinator  = flag.String("coordinator", "", "fleet coordinator base URL (worker mode: remote cache tier + self-registration)")
		advertise    = flag.String("advertise", "", "base URL workers advertise to the coordinator (default derived from -addr)")
		announce     = flag.Duration("announce-every", 5*time.Second, "worker re-registration period in worker mode")
	)
	flag.Parse()

	eng := ef.Engine()
	if *coordinator != "" {
		eng.Cache.Remote = &fleet.CacheClient{Base: *coordinator}
	}
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

	shutdown := srv.Shutdown
	if *coordinator != "" {
		self := *advertise
		if self == "" {
			self = deriveAdvertise(*addr)
		}
		fmt.Fprintf(os.Stderr, "finereg-serve: worker of %s (advertising %s)\n", *coordinator, self)
		actx, stopAnnouncing := context.WithCancel(context.Background())
		go fleet.AnnounceLoop(actx, *coordinator, self, *announce, nil)
		shutdown = func(ctx context.Context) error {
			stopAnnouncing()
			return srv.Shutdown(ctx)
		}
	}

	if err := serve.ListenAndDrain(context.Background(), "finereg-serve", *addr, srv, shutdown, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "finereg-serve: %v\n", err)
		os.Exit(1)
	}
}

// deriveAdvertise turns a listen address into a URL the coordinator can
// dial: ":8322" (all interfaces) advertises the loopback address — right
// for a single-machine cluster; multi-host fleets pass -advertise.
func deriveAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

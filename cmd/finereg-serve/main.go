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
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"finereg/internal/fleet"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8321", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", serve.DefaultQueueCap, "admission queue capacity (full queue sheds with 429)")
		maxBatch     = flag.Int("max-batch", serve.DefaultMaxBatch, "max jobs per batch request")
		cacheDir     = flag.String("cache-dir", ".finereg-cache", "on-disk result cache directory ('' = memory only)")
		noCache      = flag.Bool("no-cache", false, "keep results in memory only (no disk reads or writes)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-simulation wall-clock budget (0 = none)")
		progEvery    = flag.Int64("progress-every", 0, "in-run sample period in simulated cycles (0 = default, negative = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight simulations")
		quiet        = flag.Bool("quiet", false, "suppress the stderr progress line")
		coordinator  = flag.String("coordinator", "", "fleet coordinator base URL (worker mode: remote cache tier + self-registration)")
		advertise    = flag.String("advertise", "", "base URL workers advertise to the coordinator (default derived from -addr)")
		announce     = flag.Duration("announce-every", 5*time.Second, "worker re-registration period in worker mode")
	)
	flag.Parse()

	dir := *cacheDir
	if *noCache {
		dir = ""
	}
	cache := runner.NewCache(dir)
	if *coordinator != "" {
		cache.Remote = &fleet.CacheClient{Base: *coordinator}
	}
	eng := &runner.Engine{
		Jobs:    *workers,
		Cache:   cache,
		Timeout: *jobTimeout,
	}
	srv := serve.New(serve.Config{
		Engine:        eng,
		Workers:       *workers,
		QueueCap:      *queueCap,
		MaxBatch:      *maxBatch,
		ProgressEvery: *progEvery,
	})
	if !*quiet {
		progress := trace.NewProgress(os.Stderr)
		srv.Fanout().Subscribe(progress)
		defer progress.Close()
	}

	// Header and idle timeouts only: SSE event streams are long-lived, so
	// a whole-request read or write deadline would cut them off.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "finereg-serve: listening on %s (cache %s)\n", *addr, cacheLabel(dir))

	if *coordinator != "" {
		self := *advertise
		if self == "" {
			self = deriveAdvertise(*addr)
		}
		fmt.Fprintf(os.Stderr, "finereg-serve: worker of %s (advertising %s)\n", *coordinator, self)
		go fleet.AnnounceLoop(ctx, *coordinator, self, *announce, nil)
	}

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "finereg-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "\nfinereg-serve: draining (up to %s)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Service first: draining closes SSE streams and answers submissions
	// with 503 while in-flight jobs finish. Only then stop the HTTP
	// listener — the other order would leave hs.Shutdown waiting on SSE
	// connections that only terminate once the service drains.
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "finereg-serve: drain deadline hit, in-flight simulations stopped\n")
	}
	hs.Shutdown(dctx)
	fmt.Fprintln(os.Stderr, "finereg-serve: bye")
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
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

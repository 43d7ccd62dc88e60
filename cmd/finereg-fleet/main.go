// finereg-fleet runs the distributed-simulation coordinator: the same v1
// HTTP/JSON API as finereg-serve, but execution is dispatched to a fleet
// of worker nodes (ordinary finereg-serve processes started with
// -coordinator).
//
// Usage:
//
//	finereg-fleet [-addr :8320] [-nodes http://h1:8321,http://h2:8321]
//	              [-queue 64] [-max-batch 256]
//	              [-cache-dir .finereg-fleet-cache] [-no-cache]
//	              [-slots 4] [-poll-every 50ms]
//	              [-probe-every 2s] [-down-after 3]
//	              [-progress-every N] [-drain-timeout 30s] [-quiet]
//
// Endpoints (beyond the full finereg-serve v1 API):
//
//	GET  /v1/cache/{key}      shared result tier (workers' remote cache)
//	PUT  /v1/cache/{key}      write-through from workers
//	GET  /v1/fleet/workers    fleet membership and per-node state
//	POST /v1/fleet/workers    worker self-registration {"url": "..."}
//
// Jobs route to workers by rendezvous hashing on their content-addressed
// key, so a repeated job lands on the worker whose disk cache already
// holds it; idle workers steal from the longest backlog; a worker that
// stops answering has its jobs requeued onto survivors. The coordinator's
// own cache — consulted before any dispatch, populated by every committed
// result and worker write-through — answers repeats without touching the
// fleet at all.
//
// -nodes seeds the fleet statically; workers started with -coordinator
// register themselves, so a pure self-assembling cluster needs no -nodes.
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
	"finereg/internal/serve"
	"finereg/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8320", "listen address")
		nodes        = flag.String("nodes", "", "comma-separated worker base URLs (workers can also self-register)")
		queueCap     = flag.Int("queue", serve.DefaultQueueCap, "admission queue capacity (full queue sheds with 429)")
		maxBatch     = flag.Int("max-batch", serve.DefaultMaxBatch, "max jobs per batch request")
		cacheDir     = flag.String("cache-dir", ".finereg-fleet-cache", "shared result cache directory ('' = memory only)")
		noCache      = flag.Bool("no-cache", false, "keep the shared cache in memory only")
		slots        = flag.Int("slots", 4, "concurrent dispatches per worker node")
		pollEvery    = flag.Duration("poll-every", 50*time.Millisecond, "per-job status poll period against workers")
		probeEvery   = flag.Duration("probe-every", 2*time.Second, "worker liveness probe period")
		downAfter    = flag.Int("down-after", 3, "consecutive failures before a worker is marked down")
		progEvery    = flag.Int64("progress-every", 0, "in-run sample period forwarded from workers (0 = default, negative = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for dispatched jobs")
		quiet        = flag.Bool("quiet", false, "suppress the stderr progress line")
	)
	flag.Parse()

	dir := *cacheDir
	if *noCache {
		dir = ""
	}
	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}

	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Nodes:         nodeList,
		CacheDir:      dir,
		QueueCap:      *queueCap,
		MaxBatch:      *maxBatch,
		ProgressEvery: *progEvery,
		Slots:         *slots,
		PollEvery:     *pollEvery,
		ProbeEvery:    *probeEvery,
		DownAfter:     *downAfter,
	})
	if !*quiet {
		progress := trace.NewProgress(os.Stderr)
		coord.Server().Fanout().Subscribe(progress)
		defer progress.Close()
	}

	// Header and idle timeouts only: SSE event streams are long-lived, so
	// a whole-request read or write deadline would cut them off.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "finereg-fleet: coordinating on %s (%d seed workers, cache %s)\n",
		*addr, len(nodeList), cacheLabel(dir))

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "finereg-fleet: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "\nfinereg-fleet: draining (up to %s)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Service first, listener second — same ordering rationale as
	// finereg-serve: SSE streams only terminate once the service drains.
	if err := coord.Shutdown(dctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "finereg-fleet: drain deadline hit, outstanding dispatches cancelled\n")
	}
	hs.Shutdown(dctx)
	fmt.Fprintln(os.Stderr, "finereg-fleet: bye")
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}

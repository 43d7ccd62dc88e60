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
//	              [-slots 4] [-probe-every 2s] [-down-after 3]
//	              [-progress-every N] [-drain-timeout 30s]
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
// holds it; a job whose first-ranked worker has every slot busy goes to the
// next worker in its order with a free one; a worker that stops answering
// has its jobs requeued onto survivors. A dispatched job is
// followed over the worker's event stream to its finish event. The
// coordinator's own cache — consulted before any dispatch, populated by
// every committed result and worker write-through — answers repeats
// without touching the fleet at all.
//
// -nodes seeds the fleet statically; workers started with -coordinator
// register themselves, so a pure self-assembling cluster needs no -nodes.
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
)

func main() {
	var cf runner.Flags
	cf.RegisterCache(flag.CommandLine, ".finereg-fleet-cache")
	var (
		addr       = flag.String("addr", ":8320", "listen address")
		nodes      = flag.String("nodes", "", "comma-separated worker base URLs (workers can also self-register)")
		queueCap   = flag.Int("queue", serve.DefaultQueueCap, "admission queue capacity (full queue sheds with 429)")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "max jobs per batch request")
		slots      = flag.Int("slots", 4, "concurrent dispatches per worker node")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "worker liveness probe period")
		downAfter  = flag.Int("down-after", 3, "consecutive failures before a worker is marked down")
		// Only the sign is used: gpu.Config.ProgressEvery is json:"-" and
		// never crosses the hop, so workers sample at their own period.
		progEvery    = flag.Int64("progress-every", 0, "negative = do not relay workers' in-run progress samples; a period is not forwarded (workers sample at their own -progress-every)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for dispatched jobs")
	)
	flag.Parse()

	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		CacheDir:      cf.Dir(),
		QueueCap:      *queueCap,
		MaxBatch:      *maxBatch,
		ProgressEvery: *progEvery,
		Slots:         *slots,
		ProbeEvery:    *probeEvery,
		DownAfter:     *downAfter,
	})
	// A seed joins exactly as a self-registering worker does.
	seeds := 0
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if err := coord.AddWorker(n); err != nil {
			fmt.Fprintf(os.Stderr, "finereg-fleet: -nodes: %v\n", err)
			os.Exit(2)
		}
		seeds++
	}
	fmt.Fprintf(os.Stderr, "finereg-fleet: %d seed workers, cache %s\n", seeds, cf.CacheLabel())

	if err := serve.ListenAndDrain(context.Background(), "finereg-fleet", *addr, coord, coord.Shutdown, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "finereg-fleet: %v\n", err)
		os.Exit(1)
	}
}

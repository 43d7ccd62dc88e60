package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/serve/metrics"
)

// CoordinatorConfig sizes a Coordinator. Workers join through AddWorker,
// as the seeds of finereg-fleet -nodes do.
type CoordinatorConfig struct {
	// CacheDir backs the coordinator's result cache, the fleet's only
	// shared one; "" keeps it in memory.
	CacheDir string
	// QueueCap / MaxBatch / ProgressEvery pass through to the embedded
	// serve.Server (zero = its defaults). Of ProgressEvery only the sign
	// matters here: negative stops the relay of workers' samples, but the
	// period never crosses the hop — workers sample at their own.
	QueueCap      int
	MaxBatch      int
	ProgressEvery int64
	// Slots is the per-node dispatch concurrency (default 4). The
	// embedded server's worker pool grows with the fleet to saturate it.
	Slots int
	// ProbeEvery paces worker liveness probes (default 2s; < 0 disables
	// the probe loop — tests drive ProbeAll directly).
	ProbeEvery time.Duration
	// DownAfter is how many consecutive failures (event-stream attempts
	// that delivered nothing new, or liveness probes) demote a node to down
	// (default 3).
	DownAfter int
	// HTTP is the dispatch/probe transport (nil = 15s-timeout client).
	HTTP *http.Client
}

// Coordinator fronts a worker fleet with the single-node v1 API: an
// embedded serve.Server does admission/coalescing/records/SSE/metrics over
// an ordinary runner.Engine (cache, in-flight coalescing, counters) whose
// executor is a Dispatcher doing placement. The coordinator adds one route,
// GET /v1/fleet/workers (fleet membership and per-node state), plus
// per-node metrics and the liveness probe loop.
type Coordinator struct {
	srv   *serve.Server
	disp  *Dispatcher
	cache *runner.Cache

	nodeUp       *metrics.GaugeFuncVec
	nodeInflight *metrics.GaugeFuncVec

	probeStop context.CancelFunc // ends the probe loop and its round in flight
	probeDone chan struct{}
	stopOnce  sync.Once
	stopErr   error // the first Shutdown's drain result
}

// NewCoordinator builds and starts a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cache := runner.NewCache(cfg.CacheDir)
	disp := newDispatcher(cfg)
	c := &Coordinator{
		disp:  disp,
		cache: cache,
		srv: serve.New(serve.Config{
			Engine: &runner.Engine{Cache: cache, Exec: disp.Execute},
			// Headroom before the first node; AddWorker adds one serve worker
			// per dispatch slot of each node that joins.
			Workers:       max(disp.slots, runtime.GOMAXPROCS(0)),
			QueueCap:      cfg.QueueCap,
			MaxBatch:      cfg.MaxBatch,
			ProgressEvery: cfg.ProgressEvery,
		}),
		probeDone: make(chan struct{}),
	}
	c.srv.Handle("GET /v1/fleet/workers", http.HandlerFunc(c.handleListWorkers))
	c.initMetrics()

	probeEvery := cfg.ProbeEvery
	if probeEvery == 0 {
		probeEvery = 2 * time.Second
	}
	ctx, stop := context.WithCancel(context.Background())
	c.probeStop = stop
	if probeEvery > 0 {
		go c.probeLoop(ctx, probeEvery)
	} else {
		close(c.probeDone)
	}
	return c
}

// Dispatcher exposes the dispatcher (fleet state inspection).
func (c *Coordinator) Dispatcher() *Dispatcher { return c.disp }

// Cache exposes the coordinator's result cache: the one the engine checks
// before a dispatch and commits to after it.
func (c *Coordinator) Cache() *runner.Cache { return c.cache }

// AddWorker registers (or revives) a worker node and its metric series. A
// new node brings Slots more serve workers, so every node's dispatch slots
// can be busy at once however the fleet assembled. The URL must be an
// absolute http or https URL; its path is dropped.
func (c *Coordinator) AddWorker(nodeURL string) error {
	u, err := url.Parse(nodeURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("fleet: worker url %q is not an absolute http(s) URL", nodeURL)
	}
	base := u.Scheme + "://" + u.Host
	if c.disp.AddNode(base) {
		c.addNodeMetrics(base)
		c.srv.AddWorkers(c.disp.slots)
	}
	return nil
}

// ServeHTTP implements http.Handler by delegating to the embedded server
// (which carries the extra fleet route).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.srv.ServeHTTP(w, r) }

// Shutdown stops probing, cutting short a probe round in flight, drains the
// embedded server (at the deadline its engine's StopAll cancels the
// outstanding dispatches), and closes the dispatcher. Idempotent: a repeated
// call returns the first call's result.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() {
		c.probeStop()
		<-c.probeDone
		c.stopErr = c.srv.Shutdown(ctx)
		c.disp.Close()
	})
	return c.stopErr
}

// probeLoop probes the fleet every period until ctx ends. A tick that
// races the end starts no round: select picks among ready cases at random.
func (c *Coordinator) probeLoop(ctx context.Context, every time.Duration) {
	defer close(c.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
		if ctx.Err() != nil {
			return
		}
		c.disp.ProbeAll(ctx)
	}
}

func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.disp.NodeStatuses())
}

func (c *Coordinator) initMetrics() {
	r := c.srv.Registry()
	r.NewCounterFunc("finereg_fleet_dispatched_total",
		"Jobs dispatched to worker nodes (including requeued re-dispatches).",
		func() int64 { return c.disp.Stats().Dispatched })
	r.NewCounterFunc("finereg_fleet_stolen_total",
		"Dispatches placed below the job's first-ranked node because that node was full.",
		func() int64 { return c.disp.Stats().Stolen })
	r.NewCounterFunc("finereg_fleet_requeued_total",
		"Jobs requeued after their worker stopped answering or shed them.",
		func() int64 { return c.disp.Stats().Requeued })
	r.NewGaugeFunc("finereg_fleet_nodes_alive",
		"Worker nodes currently considered live.",
		func() float64 {
			n := 0
			for _, ns := range c.disp.NodeStatuses() {
				if ns.Alive {
					n++
				}
			}
			return float64(n)
		})
	c.nodeUp = r.NewGaugeFuncVec("finereg_fleet_node_up",
		"Per-node liveness (1 = answering, 0 = down).", "node")
	c.nodeInflight = r.NewGaugeFuncVec("finereg_fleet_node_inflight",
		"Per-node dispatch slots taken.", "node")
}

// addNodeMetrics registers one node's labeled series (idempotent —
// re-adding replaces the child with an equivalent closure).
func (c *Coordinator) addNodeMetrics(nodeURL string) {
	c.nodeUp.Add(nodeURL, func() float64 {
		if c.disp.nodeStatus(nodeURL).Alive {
			return 1
		}
		return 0
	})
	c.nodeInflight.Add(nodeURL, func() float64 {
		return float64(c.disp.nodeStatus(nodeURL).Inflight)
	})
}

package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"finereg/internal/runner"
	"finereg/internal/serve"
)

// Dispatcher routes cache-missed jobs to worker nodes. Its Execute is a
// runner.Executor, so a coordinator is an ordinary serve.Server over an
// ordinary runner.Engine whose executor points here instead of at the
// local simulator: admission, coalescing, records, SSE, the cache bracket
// and the metrics are all unchanged.
//
// Placement is rendezvous hashing on the job key (cache-aware: a job
// returns to the worker that computed it last time), each node has its
// own dispatch queue drained by Slots puller goroutines, and an idle
// node's pullers steal from the longest backlog so one hot placement
// cannot serialize the fleet. A node that stops answering — transport
// errors while dispatching or following a job, or failed liveness probes —
// is marked down and its queued and in-flight jobs are requeued onto
// survivors; the serving record's at-most-once commit keeps a presumed-dead
// node's late result from double-finishing a job. A node that sheds a job
// (429: its admission queue is full) is busy, not lost: that one task is
// requeued and the node stays up.
type Dispatcher struct {
	cfg    DispatcherConfig
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	nodes  map[string]*node
	closed bool
	wg     sync.WaitGroup

	dispatched atomic.Int64
	stolen     atomic.Int64
	requeued   atomic.Int64
}

// DispatcherConfig sizes a Dispatcher.
type DispatcherConfig struct {
	// Slots is the number of jobs dispatched concurrently per node
	// (default 4): roughly the worker's appetite, kept modest so the
	// worker's own admission queue, not the coordinator, is the backlog.
	Slots int
	// DownAfter is how many consecutive failures (event-stream attempts
	// that delivered nothing new, or liveness probes) demote a node to down
	// (default 3).
	DownAfter int
	// HTTP is the transport for dispatch and probes (nil = a client with
	// a 15s timeout).
	HTTP *http.Client
}

func (c *DispatcherConfig) withDefaults() DispatcherConfig {
	out := *c
	if out.Slots <= 0 {
		out.Slots = 4
	}
	if out.DownAfter <= 0 {
		out.DownAfter = 3
	}
	if out.HTTP == nil {
		out.HTTP = &http.Client{Timeout: 15 * time.Second}
	}
	return out
}

// node is one worker: its client, liveness, and dispatch queue.
type node struct {
	url    string
	client *serve.Client

	// Guarded by Dispatcher.mu.
	alive      bool
	probeFails int
	queue      []*task
	inflight   int

	dispatched atomic.Int64
}

// task is one job in flight through the dispatcher.
type task struct {
	ctx   context.Context // the execution's: ends on engine StopAll/Timeout or dispatcher Close
	job   *runner.Job
	key   string
	tried map[string]bool // nodes that already failed this task
	res   chan taskResult // buffered(1); delivered exactly once
}

type taskResult struct {
	res *runner.Result
	err error
}

// errNodeLost and errNodeBusy are the puller-internal signals that a worker
// stopped answering mid-job, or shed the job because its queue was full; the
// task is requeued, never failed, on these paths.
var (
	errNodeLost = errors.New("fleet: worker node lost")
	errNodeBusy = errors.New("fleet: worker node busy")
)

// NewDispatcher builds an empty dispatcher; add workers with AddNode.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	d := &Dispatcher{cfg: cfg.withDefaults(), nodes: map[string]*node{}}
	d.cond = sync.NewCond(&d.mu)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d
}

// AddNode registers (or revives) a worker by base URL. Reports whether
// the node is new. Safe to call at any time; registration is idempotent,
// so workers can re-announce themselves periodically.
func (d *Dispatcher) AddNode(url string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.cond.Broadcast()
	if n, ok := d.nodes[url]; ok {
		n.alive, n.probeFails = true, 0
		return false
	}
	n := &node{url: url, alive: true, client: &serve.Client{Base: url, HTTP: d.cfg.HTTP}}
	d.nodes[url] = n
	for i := 0; i < d.cfg.Slots; i++ {
		d.wg.Add(1)
		go d.puller(n)
	}
	return true
}

// Execute is the coordinator engine's runner.Executor: place the job on
// a node queue and wait for a puller to bring its result back. The cache
// lookup before it and the commit after it are the engine's.
func (d *Dispatcher) Execute(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(d.ctx, cancel)() // Close ends outstanding tasks too
	t := &task{ctx: ctx, job: j, key: key, tried: map[string]bool{}, res: make(chan taskResult, 1)}
	d.mu.Lock()
	err := d.routeLocked(t)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	d.cond.Broadcast()
	select {
	case r := <-t.res:
		return r.res, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops the pullers; outstanding tasks fail with a cancellation
// error. Idempotent.
func (d *Dispatcher) Close() {
	d.cancel()
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
	d.wg.Wait()
}

// routeLocked places t on the best node per rendezvous order: the
// highest-scoring alive node that has not already failed it (falling back
// to retrying failed nodes when no fresh one is alive).
func (d *Dispatcher) routeLocked(t *task) error {
	var alive []string
	for url, n := range d.nodes {
		if n.alive {
			alive = append(alive, url)
		}
	}
	if len(alive) == 0 {
		return fmt.Errorf("fleet: no live worker for job %s", t.job.Label)
	}
	ranked := rendezvousRank(t.key, alive)
	target := ""
	for _, url := range ranked {
		if !t.tried[url] {
			target = url
			break
		}
	}
	if target == "" {
		// Every live node failed this task once already; reset and retry
		// the primary rather than failing a job a transient blip touched.
		t.tried = map[string]bool{}
		target = ranked[0]
	}
	d.nodes[target].queue = append(d.nodes[target].queue, t)
	return nil
}

// next blocks until n has a task (its own queue first, then stealing from
// the longest backlog). Returns nil when the dispatcher closes.
func (d *Dispatcher) next(n *node) (*task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil, false
		}
		if n.alive {
			if len(n.queue) > 0 {
				t := n.queue[0]
				n.queue = n.queue[1:]
				n.inflight++
				return t, false
			}
			// Never steal back a task this node already shed or failed: the
			// requeue just took it elsewhere.
			var victim *node
			for _, o := range d.nodes {
				if o != n && len(o.queue) > 0 && !o.queue[0].tried[n.url] &&
					(victim == nil || len(o.queue) > len(victim.queue)) {
					victim = o
				}
			}
			if victim != nil {
				t := victim.queue[0]
				victim.queue = victim.queue[1:]
				n.inflight++
				return t, true
			}
		}
		d.cond.Wait()
	}
}

// puller is one dispatch slot of one node.
func (d *Dispatcher) puller(n *node) {
	defer d.wg.Done()
	for {
		t, stole := d.next(n)
		if t == nil {
			return
		}
		if stole {
			d.stolen.Add(1)
		}
		d.dispatched.Add(1)
		n.dispatched.Add(1)
		res, err := d.runOn(n, t)
		d.mu.Lock()
		n.inflight--
		lost, busy := errors.Is(err, errNodeLost), errors.Is(err, errNodeBusy)
		if lost {
			// The node stopped answering mid-job: demote it and requeue
			// this task (and its queued backlog) onto survivors. If the
			// node actually finished the job, the serving record's
			// at-most-once commit discards the late twin result.
			d.markDownLocked(n)
		}
		if lost || busy {
			d.requeueLocked(t, n)
			d.cond.Broadcast()
		}
		d.mu.Unlock()
		if !lost && !busy {
			t.res <- taskResult{res: res, err: err}
		}
	}
}

// markDownLocked demotes n and reroutes its queued tasks.
func (d *Dispatcher) markDownLocked(n *node) {
	n.alive = false
	pending := n.queue
	n.queue = nil
	for _, t := range pending {
		d.requeueLocked(t, n)
	}
}

// requeueLocked routes t away from the node that failed it; with no live
// node left the task fails.
func (d *Dispatcher) requeueLocked(t *task, from *node) {
	t.tried[from.url] = true
	d.requeued.Add(1)
	if err := d.routeLocked(t); err != nil {
		t.res <- taskResult{err: err}
	}
}

// runOn executes t on n and makes the classification only a dispatcher
// can: which of the outcomes serve.Client.Run reports mean "take the task
// elsewhere". A worker that stopped answering, lost the job, keys it under
// another fingerprint, or is draining (503) is errNodeLost; one whose
// admission queue is full (429) is errNodeBusy; any other rejection, and
// the job's own failure, are the task's result. The job's Progress
// callback is the one serve installed at admission, so the samples Run
// relays surface through the coordinator's SSE and rate gauges exactly as
// if the job ran locally.
func (d *Dispatcher) runOn(n *node, t *task) (*runner.Result, error) {
	res, err := n.client.Run(t.ctx, t.key, t.job, d.cfg.DownAfter)
	var le *serve.LostError
	var ae *serve.APIError
	switch {
	case err == nil:
		return res, nil
	case errors.As(err, &le):
		return nil, fmt.Errorf("%w: %s: %v", errNodeLost, n.url, err)
	case !errors.As(err, &ae):
		return nil, fmt.Errorf("fleet: worker %s: %w", n.url, err)
	case ae.Status == http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: %s is draining: %v", errNodeLost, n.url, err)
	case ae.Status != http.StatusTooManyRequests:
		return nil, fmt.Errorf("fleet: worker %s rejected job: %w", n.url, err)
	}
	// Shed. Another node takes the task if one has not shed it yet;
	// otherwise the whole fleet is full, and going round again at once
	// would only be shed again — wait the shed out first, on this slot of
	// the node that is too busy to use it.
	d.mu.Lock()
	elsewhere := false
	for url, o := range d.nodes {
		elsewhere = elsewhere || (o != n && o.alive && !t.tried[url])
	}
	d.mu.Unlock()
	if !elsewhere {
		if err := n.client.WaitShed(t.ctx, ae); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: %s shed the job: %v", errNodeBusy, n.url, err)
}

// ProbeAll checks every node's /healthz once, reviving answering nodes
// and demoting nodes that failed DownAfter consecutive probes (their
// backlog requeues onto survivors). The coordinator calls this on its
// probe interval.
func (d *Dispatcher) ProbeAll() {
	d.mu.Lock()
	var nodes []*node
	for _, n := range d.nodes {
		nodes = append(nodes, n)
	}
	d.mu.Unlock()

	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			// A 2xx from /healthz; a draining worker answers 503 and
			// correctly reads as not-accepting-work.
			ok := n.client.Call(d.ctx, http.MethodGet, "/healthz", nil, nil) == nil
			d.mu.Lock()
			defer d.mu.Unlock()
			if ok {
				n.alive, n.probeFails = true, 0
			} else if n.probeFails++; n.alive && n.probeFails >= d.cfg.DownAfter {
				d.markDownLocked(n)
			}
			d.cond.Broadcast()
		}(n)
	}
	wg.Wait()
}

// DispatcherStats is a point-in-time counter snapshot.
type DispatcherStats struct {
	Dispatched, Stolen, Requeued int64
}

// Stats snapshots the dispatch counters.
func (d *Dispatcher) Stats() DispatcherStats {
	return DispatcherStats{
		Dispatched: d.dispatched.Load(),
		Stolen:     d.stolen.Load(),
		Requeued:   d.requeued.Load(),
	}
}

// NodeStatus is one worker's externally visible state.
type NodeStatus struct {
	URL        string `json:"url"`
	Alive      bool   `json:"alive"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	Dispatched int64  `json:"dispatched"`
}

// NodeStatuses lists the fleet sorted by URL.
func (d *Dispatcher) NodeStatuses() []NodeStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []NodeStatus
	for url, n := range d.nodes {
		out = append(out, NodeStatus{
			URL:        url,
			Alive:      n.alive,
			QueueDepth: len(n.queue),
			Inflight:   n.inflight,
			Dispatched: n.dispatched.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

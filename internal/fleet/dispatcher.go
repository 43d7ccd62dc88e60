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

// Dispatcher routes admitted jobs to worker nodes. It implements
// serve.Runner, so a coordinator is an ordinary serve.Server whose
// execution seam points here instead of at a local engine: admission,
// coalescing, records, SSE, and metrics are all unchanged.
//
// Placement is rendezvous hashing on the job key (cache-aware: a job
// returns to the worker that computed it last time), each node has its
// own dispatch queue drained by Slots puller goroutines, and an idle
// node's pullers steal from the longest backlog so one hot placement
// cannot serialize the fleet. A node that stops answering — transport
// errors while dispatching/polling, or failed liveness probes — is marked
// down and its queued and in-flight jobs are requeued onto survivors;
// the serving record's at-most-once commit keeps a presumed-dead node's
// late result from double-finishing a job.
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
	// Cache is the coordinator's shared result store, consulted before
	// any dispatch and populated with every committed result (nil = no
	// pre-dispatch cache).
	Cache *runner.Cache
	// Slots is the number of jobs dispatched concurrently per node
	// (default 4): roughly the worker's appetite, kept modest so the
	// worker's own admission queue, not the coordinator, is the backlog.
	Slots int
	// PollEvery paces per-job status polls against workers (default
	// 50ms).
	PollEvery time.Duration
	// DownAfter is how many consecutive transport failures (polling a
	// job, or liveness probes) demote a node to down (default 3).
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
	if out.PollEvery <= 0 {
		out.PollEvery = 50 * time.Millisecond
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
	job   *runner.Job
	key   string
	tried map[string]bool // nodes that already failed this task
	res   chan taskResult // buffered(1); delivered exactly once
}

type taskResult struct {
	res    *runner.Result
	cached bool
	err    error
}

// errNodeLost is the puller-internal signal that a worker stopped
// answering mid-job; the task is requeued, never failed, on this path.
var errNodeLost = errors.New("fleet: worker node lost")

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
	if n, ok := d.nodes[url]; ok {
		n.alive = true
		n.probeFails = 0
		d.mu.Unlock()
		d.cond.Broadcast()
		return false
	}
	n := &node{
		url:   url,
		alive: true,
		client: &serve.Client{
			Base:         url,
			HTTP:         d.cfg.HTTP,
			PollInterval: d.cfg.PollEvery,
		},
	}
	d.nodes[url] = n
	for i := 0; i < d.cfg.Slots; i++ {
		d.wg.Add(1)
		go d.puller(n)
	}
	d.mu.Unlock()
	d.cond.Broadcast()
	return true
}

// RunJob implements serve.Runner: shared-cache lookup, then dispatch.
func (d *Dispatcher) RunJob(j *runner.Job) (*runner.Result, bool, error) {
	key := j.Key(d.cfg.Cache.KeyFingerprint())
	if c := d.cfg.Cache; c != nil {
		if res, _, ok := c.Get(key); ok {
			return res, true, nil
		}
	}
	t := &task{job: j, key: key, tried: map[string]bool{}, res: make(chan taskResult, 1)}
	d.mu.Lock()
	err := d.routeLocked(t)
	d.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	d.cond.Broadcast()
	select {
	case r := <-t.res:
		if r.err == nil && d.cfg.Cache != nil {
			// Commit to the shared tier: a result computed (or locally
			// cached) on any worker becomes a coordinator hit for the
			// whole fleet.
			d.cfg.Cache.Put(key, r.res)
		}
		return r.res, r.cached, r.err
	case <-d.ctx.Done():
		return nil, false, d.ctx.Err()
	}
}

// StopAll implements the optional shutdown hook of serve.Runner: it
// cancels every outstanding dispatch (the workers' own watchdogs handle
// their local simulations) and returns how many were in flight.
func (d *Dispatcher) StopAll() int {
	d.mu.Lock()
	n := 0
	for _, nd := range d.nodes {
		n += nd.inflight
	}
	d.mu.Unlock()
	d.cancel()
	return n
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
			var victim *node
			for _, o := range d.nodes {
				if o != n && len(o.queue) > 0 && (victim == nil || len(o.queue) > len(victim.queue)) {
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
		res, cached, err := d.runOn(n, t)
		d.mu.Lock()
		n.inflight--
		if errors.Is(err, errNodeLost) {
			// The node stopped answering mid-job: demote it and requeue
			// this task (and its queued backlog) onto survivors. If the
			// node actually finished the job, the serving record's
			// at-most-once commit discards the late twin result.
			d.markDownLocked(n)
			t.tried[n.url] = true
			d.requeued.Add(1)
			if rerr := d.routeLocked(t); rerr != nil {
				t.res <- taskResult{err: rerr}
			}
			d.mu.Unlock()
			d.cond.Broadcast()
			continue
		}
		d.mu.Unlock()
		t.res <- taskResult{res: res, cached: cached, err: err}
	}
}

// markDownLocked demotes n and reroutes its queued tasks.
func (d *Dispatcher) markDownLocked(n *node) {
	n.alive = false
	pending := n.queue
	n.queue = nil
	for _, t := range pending {
		t.tried[n.url] = true
		d.requeued.Add(1)
		if err := d.routeLocked(t); err != nil {
			t.res <- taskResult{err: err}
		}
	}
}

// forwardDrain bounds how long a finished job waits for its forwarded
// progress stream to end, so a wedged stream cannot hold a result back.
const forwardDrain = 250 * time.Millisecond

// runOn executes t on n: submit, forward progress, poll to completion.
// errNodeLost (wrapped) means "requeue elsewhere"; any other error is the
// job's own failure.
func (d *Dispatcher) runOn(n *node, t *task) (*runner.Result, bool, error) {
	st, err := n.client.SubmitJob(d.ctx, serve.RequestFromJob(t.job))
	if err != nil {
		var ae *serve.APIError
		if errors.As(err, &ae) {
			// The worker answered: a rejection, not a dead node. 429
			// (worker queue full) retries on another node; anything else
			// is the job's failure.
			if ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable {
				return nil, false, fmt.Errorf("%w: %s shed the job: %v", errNodeLost, n.url, err)
			}
			return nil, false, fmt.Errorf("fleet: worker %s rejected job: %w", n.url, err)
		}
		if d.ctx.Err() != nil {
			return nil, false, d.ctx.Err()
		}
		return nil, false, fmt.Errorf("%w: %s: %v", errNodeLost, n.url, err)
	}

	// Forward the worker's progress stream into the coordinator-side
	// record: the job's Progress callback is the one serve installed at
	// admission, so samples surface through the coordinator's SSE and
	// rate gauges exactly as if the job ran locally.
	var forwarded chan struct{}
	if t.job.Cfg.Progress != nil {
		sctx, cancel := context.WithCancel(d.ctx)
		defer cancel()
		forwarded = make(chan struct{})
		go func() {
			defer close(forwarded)
			n.client.StreamEvents(sctx, st.ID, func(ev serve.Event) bool {
				if ev.Kind == "progress" {
					t.job.Cfg.Progress(ev.Sample())
				}
				return true
			})
		}()
	}

	fails := 0
	for {
		js, err := n.client.JobStatus(d.ctx, st.ID)
		switch {
		case err == nil:
			fails = 0
			if js.Done() {
				if js.State == "failed" {
					return nil, false, fmt.Errorf("fleet: worker %s: %s", n.url, js.Error)
				}
				if js.Result == nil {
					return nil, false, fmt.Errorf("fleet: worker %s finished job %s without a result", n.url, st.ID)
				}
				if forwarded != nil {
					// The worker ends the stream right after "finish";
					// let its tail (the Final sample) land before the
					// deferred cancel cuts the forwarder off and the
					// coordinator commits the record.
					select {
					case <-forwarded:
					case <-time.After(forwardDrain):
					}
				}
				return js.Result, js.Cached, nil
			}
		default:
			var ae *serve.APIError
			if errors.As(err, &ae) {
				// The worker answered but no longer knows the job (e.g.
				// restarted in between): re-run it elsewhere.
				return nil, false, fmt.Errorf("%w: %s lost job %s: %v", errNodeLost, n.url, st.ID, err)
			}
			if d.ctx.Err() != nil {
				return nil, false, d.ctx.Err()
			}
			if fails++; fails >= d.cfg.DownAfter {
				return nil, false, fmt.Errorf("%w: %s unreachable polling job %s: %v", errNodeLost, n.url, st.ID, err)
			}
		}
		select {
		case <-time.After(d.cfg.PollEvery):
		case <-d.ctx.Done():
			return nil, false, d.ctx.Err()
		}
	}
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
			ok := d.probe(n.url)
			d.mu.Lock()
			if ok {
				n.probeFails = 0
				if !n.alive {
					n.alive = true
					d.mu.Unlock()
					d.cond.Broadcast()
					return
				}
			} else {
				n.probeFails++
				if n.probeFails >= d.cfg.DownAfter && n.alive {
					d.markDownLocked(n)
					d.mu.Unlock()
					d.cond.Broadcast()
					return
				}
			}
			d.mu.Unlock()
		}(n)
	}
	wg.Wait()
}

// probe is one liveness check: a 200 from /healthz. A draining worker
// answers 503 and correctly reads as not-accepting-work.
func (d *Dispatcher) probe(url string) bool {
	req, err := http.NewRequestWithContext(d.ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := d.cfg.HTTP.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
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

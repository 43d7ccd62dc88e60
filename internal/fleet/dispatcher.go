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
// The fleet has one queue, the serve server's admission queue, and a
// dispatch runs in the serve worker that dequeued the job. Placement is
// rendezvous hashing on the job key (cache-aware: a job returns to the
// worker that computed it last time): the job takes a slot on the
// highest-ranked live node that has one free, so a full primary passes it
// down its rendezvous order instead of serializing the fleet behind one hot
// placement. When every node is full, Execute waits for a slot. Those
// waiters are not FIFO among themselves; there are at most
// max(Slots, GOMAXPROCS) of them — the serve pool's headroom over the sum of
// the nodes' slots — and the admission queue in front of them is ordered.
//
// A node that stops answering — transport errors while dispatching or
// following a job, or failed liveness probes — is marked down and its jobs
// are placed again on survivors; the serving record's at-most-once commit
// keeps a presumed-dead node's late result from double-finishing a job. A
// node that sheds a job (429: its admission queue is full) is busy, not
// lost: that one job is placed again and the node stays up.
type Dispatcher struct {
	slots     int
	downAfter int
	hc        *http.Client
	ctx       context.Context // ends at Close
	cancel    context.CancelFunc

	mu sync.Mutex
	// cond is broadcast when a slot frees, a node joins or revives, a node
	// is demoted, or a waiting job's context ends.
	cond  *sync.Cond
	nodes map[string]*node

	dispatched atomic.Int64
	stolen     atomic.Int64
	requeued   atomic.Int64
}

// node is one worker: its client and, guarded by Dispatcher.mu, its
// liveness and slots.
type node struct {
	url    string
	client *serve.Client

	alive      bool
	probeFails int
	inflight   int // slots taken, at most Dispatcher.slots
	dispatched int64
}

// errNodeLost and errNodeBusy are runOn's signals that a worker stopped
// answering mid-job, or shed the job because its queue was full; the job is
// placed again, never failed, on these paths.
var (
	errNodeLost = errors.New("fleet: worker node lost")
	errNodeBusy = errors.New("fleet: worker node busy")
)

// newDispatcher builds an empty dispatcher from cfg's Slots, DownAfter and
// HTTP, defaulted as CoordinatorConfig documents; add workers with AddNode.
func newDispatcher(cfg CoordinatorConfig) *Dispatcher {
	d := &Dispatcher{slots: cfg.Slots, downAfter: cfg.DownAfter, hc: cfg.HTTP, nodes: map[string]*node{}}
	if d.slots <= 0 {
		d.slots = 4
	}
	if d.downAfter <= 0 {
		d.downAfter = 3
	}
	if d.hc == nil {
		d.hc = &http.Client{Timeout: 15 * time.Second}
	}
	d.cond = sync.NewCond(&d.mu)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d
}

// AddNode registers (or revives) a worker by base URL. Reports whether
// the node is new. Safe to call at any time; adding a known node again
// only revives it.
func (d *Dispatcher) AddNode(url string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.cond.Broadcast()
	if n, ok := d.nodes[url]; ok {
		n.alive, n.probeFails = true, 0
		return false
	}
	d.nodes[url] = &node{url: url, alive: true, client: &serve.Client{Base: url, HTTP: d.hc}}
	return true
}

// Execute is the coordinator engine's runner.Executor, and the whole
// dispatch: take a slot on the best node, run the job there, and place it
// again if that node is lost or sheds it. The cache lookup before it and
// the commit after it are the engine's.
func (d *Dispatcher) Execute(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(d.ctx, cancel)() // Close ends outstanding dispatches too
	defer context.AfterFunc(ctx, d.wake)()   // a wait for a slot ends with the job
	tried := map[string]bool{}               // nodes that already failed this job
	for {
		n, err := d.acquire(ctx, key, j.Label, tried)
		if err != nil {
			return nil, err
		}
		res, err := d.runOn(ctx, n, key, j, tried)
		lost, busy := errors.Is(err, errNodeLost), errors.Is(err, errNodeBusy)
		d.mu.Lock()
		n.inflight--
		if lost {
			// The node stopped answering mid-job: demote it and place the job
			// again. If the node actually finished the job, the serving
			// record's at-most-once commit discards the late twin result.
			n.alive = false
		}
		d.cond.Broadcast()
		d.mu.Unlock()
		if !lost && !busy {
			return res, err
		}
		tried[n.url] = true
		d.requeued.Add(1)
	}
}

// wake broadcasts cond under mu, so a waiter between its checks and its Wait
// cannot miss it.
func (d *Dispatcher) wake() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// acquire takes a slot for the job keyed key on the highest-ranked live node
// that has not already failed it and has one free, waiting while every such
// node is full. When every live node has failed the job once, tried resets
// and the job goes round again rather than failing on a transient blip.
func (d *Dispatcher) acquire(ctx context.Context, key, label string, tried map[string]bool) (*node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fresh []string
		for url, n := range d.nodes {
			if n.alive && !tried[url] {
				fresh = append(fresh, url)
			}
		}
		if len(fresh) == 0 && len(tried) > 0 {
			clear(tried)
			continue
		}
		if len(fresh) == 0 {
			return nil, fmt.Errorf("fleet: no live worker for job %s", label)
		}
		for i, url := range rendezvousRank(key, fresh) {
			if n := d.nodes[url]; n.inflight < d.slots {
				n.inflight++
				n.dispatched++
				d.dispatched.Add(1)
				if i > 0 {
					d.stolen.Add(1)
				}
				return n, nil
			}
		}
		d.cond.Wait()
	}
}

// runOn executes the job on n and makes the classification only a
// dispatcher can: which of the outcomes serve.Client.Run reports mean "take
// the job elsewhere". A worker that stopped answering, lost the job, keys it
// under another fingerprint, or is draining (503) is errNodeLost; one whose
// admission queue is full (429) is errNodeBusy; any other rejection, and the
// job's own failure, are the job's result. The job's Progress callback is
// the one serve installed at admission, so the samples Run relays surface
// through the coordinator's SSE and rate gauges exactly as if the job ran
// locally.
func (d *Dispatcher) runOn(ctx context.Context, n *node, key string, j *runner.Job, tried map[string]bool) (*runner.Result, error) {
	res, err := n.client.Run(ctx, key, j, d.downAfter)
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
	// Shed. Another node takes the job if one has not shed it yet;
	// otherwise the whole fleet is full, and going round again at once
	// would only be shed again — wait the shed out first, on this slot of
	// the node that is too busy to use it.
	d.mu.Lock()
	elsewhere := false
	for url, o := range d.nodes {
		elsewhere = elsewhere || (o != n && o.alive && !tried[url])
	}
	d.mu.Unlock()
	if !elsewhere {
		if err := n.client.WaitShed(ctx, ae); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: %s shed the job: %v", errNodeBusy, n.url, err)
}

// Close ends every outstanding dispatch with a cancellation error.
// Idempotent.
func (d *Dispatcher) Close() { d.cancel() }

// ProbeAll checks every node's /healthz once, reviving answering nodes
// and demoting nodes that failed DownAfter consecutive probes (a job in
// flight there learns of it from its own stream). It is the fleet's only
// membership path besides AddWorker: the coordinator calls it on its probe
// interval. A probe that ctx cuts short is not a failure; it leaves its
// node as it was.
func (d *Dispatcher) ProbeAll(ctx context.Context) {
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
			err := n.client.Call(ctx, http.MethodGet, "/healthz", nil, nil)
			if err != nil && ctx.Err() != nil {
				return
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			if err == nil {
				n.alive, n.probeFails = true, 0
			} else if n.probeFails++; n.probeFails >= d.downAfter {
				n.alive = false
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
	Inflight   int    `json:"inflight"`
	Dispatched int64  `json:"dispatched"`
}

// statusLocked is n's NodeStatus; the caller holds Dispatcher.mu.
func (n *node) statusLocked() NodeStatus {
	return NodeStatus{URL: n.url, Alive: n.alive, Inflight: n.inflight, Dispatched: n.dispatched}
}

// NodeStatuses lists the fleet sorted by URL.
func (d *Dispatcher) NodeStatuses() []NodeStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeStatus, 0, len(d.nodes))
	for _, n := range d.nodes {
		out = append(out, n.statusLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// nodeStatus is the status of the node at url (zero if there is none).
func (d *Dispatcher) nodeStatus(url string) NodeStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.nodes[url]; n != nil {
		return n.statusLocked()
	}
	return NodeStatus{}
}

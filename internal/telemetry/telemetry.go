// Package telemetry is a dependency-free global op-count registry for
// in-run observability: simulator packages (sm, core, regfile, mem)
// register named counters at init time and bump them with a single atomic
// add on the paths they instrument. Nothing is aggregated, sampled, or
// allocated until an observer asks — a process that never snapshots pays
// only the atomic adds, and a snapshot is a cheap read of every counter,
// so periodic deltas (gpu.Run's Progress samples, the serving layer's
// /metrics) yield per-phase time series without touching the timing model.
//
// Counters are process-global by design: with one simulation running they
// attribute exactly to that run; with several running concurrently (the
// run engine's worker pool, the serving fleet) a delta mixes their
// activity and reads as fleet-wide throughput — which is precisely what a
// /metrics scrape wants. Per-run exact attribution lives in stats.Metrics
// for final results and, since the concurrent-attribution fix, in a
// per-run Scope for in-flight progress samples: an instrumented site that
// holds a Scope bumps both the global counter and the run-local cell with
// AddScoped/IncScoped, so a ProgressSample.Ops delta is exact for its own
// run no matter how many simulations share the process.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one named monotone count. Add/Inc are lock-free; the
// registry lock is only taken at registration and snapshot time.
type Counter struct {
	name string
	id   int // registration index, stable for the process lifetime
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// IncScoped adds one to the global counter and attributes it to sc
// (nil-safe: with no scope it is exactly Inc).
func (c *Counter) IncScoped(sc *Scope) {
	c.v.Add(1)
	sc.Add(c, 1)
}

// AddScoped adds n to the global counter and attributes it to sc
// (nil-safe: with no scope it is exactly Add).
func (c *Counter) AddScoped(sc *Scope, n int64) {
	c.v.Add(n)
	sc.Add(c, n)
}

var global struct {
	mu     sync.RWMutex
	byName map[string]*Counter
	all    []*Counter // sorted by name
	byID   []*Counter // registration order; Counter.id indexes this
}

// NewCounter registers a counter under name and returns it. Registration
// is idempotent: a second call with the same name returns the existing
// counter, so package-level instrumentation and tests can both call it
// without coordination. Names follow Prometheus conventions
// (lowercase_with_underscores) because the serving layer exposes every
// registered counter as a /metrics series.
func NewCounter(name string) *Counter {
	global.mu.Lock()
	defer global.mu.Unlock()
	if global.byName == nil {
		global.byName = map[string]*Counter{}
	}
	if c, ok := global.byName[name]; ok {
		return c
	}
	c := &Counter{name: name, id: len(global.byID)}
	global.byName[name] = c
	global.byID = append(global.byID, c)
	i := sort.Search(len(global.all), func(i int) bool { return global.all[i].name >= name })
	global.all = append(global.all, nil)
	copy(global.all[i+1:], global.all[i:])
	global.all[i] = c
	return c
}

// Counters returns every registered counter in name order (a stable
// iteration order for /metrics exposition). The slice is a copy; the
// counters are the live instances.
func Counters() []*Counter {
	global.mu.RLock()
	defer global.mu.RUnlock()
	return append([]*Counter(nil), global.all...)
}

// Snapshot is a point-in-time reading of every registered counter.
type Snapshot map[string]int64

// Capture reads all counters. Each counter is read atomically; the set is
// not a consistent cut across counters (adds may land between reads),
// which is fine for monotone deltas.
func Capture() Snapshot {
	global.mu.RLock()
	defer global.mu.RUnlock()
	s := make(Snapshot, len(global.all))
	for _, c := range global.all {
		s[c.name] = c.v.Load()
	}
	return s
}

// Delta returns the per-counter increase since prev, omitting zero
// entries (the usual sample payload is sparse: only the ops a phase
// actually performed appear). Counters absent from prev count from zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{}
	for name, v := range s {
		if dv := v - prev[name]; dv != 0 {
			d[name] = dv
		}
	}
	return d
}

// Scope is one run's private view of the registry: a dense array of
// cells indexed by counter registration id. Instrumented sites that hold
// a scope dual-write through AddScoped/IncScoped, so the scope
// accumulates exactly the ops performed on behalf of its run while the
// global counters keep the fleet-wide /metrics series. Cells are plain
// int64: a scope belongs to one run, and the run goroutine is its only
// writer and (via Capture at progress samples) its only reader.
//
// A nil *Scope is valid everywhere and attributes nothing — unobserved
// runs pay only the nil check.
type Scope struct {
	v []int64
}

// NewScope returns a scope covering every counter registered so far.
// Counters registered later (impossible for the simulator's init-time
// registrations) are silently not attributed.
func NewScope() *Scope {
	global.mu.RLock()
	n := len(global.byID)
	global.mu.RUnlock()
	return &Scope{v: make([]int64, n)}
}

// Add attributes n of counter c to the scope. nil-safe.
func (s *Scope) Add(c *Counter, n int64) {
	if s == nil {
		return
	}
	if c.id < len(s.v) {
		s.v[c.id] += n
	}
}

// Capture reads the scope as a sparse Snapshot (zero cells omitted),
// directly diffable with Snapshot.Delta. A nil scope captures empty.
func (s *Scope) Capture() Snapshot {
	out := Snapshot{}
	if s == nil {
		return out
	}
	global.mu.RLock()
	defer global.mu.RUnlock()
	for id, v := range s.v {
		if v != 0 {
			out[global.byID[id].name] = v
		}
	}
	return out
}

// SnapshotAndReset atomically swaps every counter to zero and returns the
// values read — the measure-and-clear pattern for single-owner tools
// (micro-benchmarks, tests). Do NOT use it while other simulations may be
// running: it steals their in-progress deltas. Concurrent observers
// should Capture and diff instead.
func SnapshotAndReset() Snapshot {
	global.mu.RLock()
	defer global.mu.RUnlock()
	s := make(Snapshot, len(global.all))
	for _, c := range global.all {
		s[c.name] = c.v.Swap(0)
	}
	return s
}

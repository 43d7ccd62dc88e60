// Package metrics is a minimal, dependency-free metrics registry for the
// serving layer: counters, gauges, function-backed gauges, and
// fixed-bucket histograms, rendered in the Prometheus text exposition
// format. It exists so internal/serve can expose a /metrics endpoint
// without pulling a client library into a repository that is otherwise
// stdlib-only; the subset implemented here (no labels, no timestamps) is
// exactly what the server needs and nothing more.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// metric is one named time series rendered by the registry.
type metric interface {
	desc() (name, help, typ string)
	write(w io.Writer)
}

// Registry holds metrics in registration order (related series stay
// adjacent in the rendered output). All methods are safe for concurrent
// use; registration of a duplicate name panics (a wiring bug, not a
// runtime condition).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) register(m metric) {
	name, _, _ := m.desc()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Render writes every metric in the Prometheus text format.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		name, help, typ := m.desc()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		m.write(w)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---- Counter ----

// Counter is a monotonically increasing integer series.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters never go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) desc() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) write(w io.Writer)              { fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load()) }

// ---- Gauge ----

// Gauge is a settable value.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

func (g *Gauge) desc() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// ---- GaugeFunc ----

// GaugeFunc is a gauge whose value is computed at scrape time — the
// natural shape for values another component already maintains (queue
// length, cache hit ratio).
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a function-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) desc() (string, string, string) { return g.name, g.help, "gauge" }
func (g *GaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// ---- CounterFunc ----

// CounterFunc exposes a monotone value another component maintains (e.g.
// the run engine's executed-job total) as a counter series.
type CounterFunc struct {
	name, help string
	fn         func() int64
}

// NewCounterFunc registers a function-backed counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) *CounterFunc {
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) desc() (string, string, string) { return c.name, c.help, "counter" }
func (c *CounterFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}

// ---- Labeled function-backed families ----

// funcVec is a family of function-backed series sharing one name and one
// label dimension, rendered under a single HELP/TYPE header:
//
//	name{label="a"} 1
//	name{label="b"} 2
//
// Children may be added after registration (the fleet layer adds a child
// per worker node as nodes join); Add of an existing label value replaces
// the child's function, so re-registration is idempotent. This is the only
// label support the registry has — one dimension, function-backed — which
// is exactly what hit-source and per-node series need.
type funcVec struct {
	name, help, typ string
	label           string

	mu    sync.Mutex
	order []string
	fns   map[string]func() float64
}

func (v *funcVec) add(value string, fn func() float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.fns[value]; !ok {
		v.order = append(v.order, value)
	}
	v.fns[value] = fn
}

func (v *funcVec) remove(value string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.fns[value]; !ok {
		return
	}
	delete(v.fns, value)
	for i, s := range v.order {
		if s == value {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
}

func (v *funcVec) desc() (string, string, string) { return v.name, v.help, v.typ }
func (v *funcVec) write(w io.Writer) {
	v.mu.Lock()
	order := append([]string(nil), v.order...)
	fns := make([]func() float64, len(order))
	for i, val := range order {
		fns[i] = v.fns[val]
	}
	v.mu.Unlock()
	for i, val := range order {
		if v.typ == "counter" {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, val, int64(fns[i]()))
		} else {
			fmt.Fprintf(w, "%s{%s=%q} %s\n", v.name, v.label, val, formatFloat(fns[i]()))
		}
	}
}

// CounterFuncVec is a labeled family of function-backed counters (e.g.
// finereg_cache_hits_total{source="mem"|"disk"}).
type CounterFuncVec struct{ v *funcVec }

// NewCounterFuncVec registers a counter family with one label dimension.
func (r *Registry) NewCounterFuncVec(name, help, label string) *CounterFuncVec {
	v := &funcVec{name: name, help: help, typ: "counter", label: label,
		fns: map[string]func() float64{}}
	r.register(v)
	return &CounterFuncVec{v: v}
}

// Add attaches (or replaces) the child for one label value. fn must be
// monotone non-decreasing, as for any counter.
func (c *CounterFuncVec) Add(value string, fn func() int64) {
	c.v.add(value, func() float64 { return float64(fn()) })
}

// GaugeFuncVec is a labeled family of function-backed gauges (e.g.
// finereg_fleet_node_up{node=...}).
type GaugeFuncVec struct{ v *funcVec }

// NewGaugeFuncVec registers a gauge family with one label dimension.
func (r *Registry) NewGaugeFuncVec(name, help, label string) *GaugeFuncVec {
	v := &funcVec{name: name, help: help, typ: "gauge", label: label,
		fns: map[string]func() float64{}}
	r.register(v)
	return &GaugeFuncVec{v: v}
}

// Add attaches (or replaces) the child for one label value.
func (g *GaugeFuncVec) Add(value string, fn func() float64) { g.v.add(value, fn) }

// Remove drops the child for one label value (a departed worker node).
func (g *GaugeFuncVec) Remove(value string) { g.v.remove(value) }

// ---- Histogram ----

// Histogram counts observations into fixed upper-bound buckets,
// Prometheus-style (cumulative le buckets plus _sum and _count).
type Histogram struct {
	name, help string
	bounds     []float64

	mu     sync.Mutex
	counts []int64
	sum    float64
	n      int64
}

// DefLatencyBuckets spans job latencies from milliseconds (warm cache
// hits) to the half-hour full-scale runs.
var DefLatencyBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300, 1800}

// NewHistogram registers a histogram with the given ascending bucket upper
// bounds (an implicit +Inf bucket is always appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := len(h.bounds) // +Inf slot
	for b, ub := range h.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func (h *Histogram) desc() (string, string, string) { return h.name, h.help, "histogram" }
func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	var cum int64
	for i, ub := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, n)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, n)
}

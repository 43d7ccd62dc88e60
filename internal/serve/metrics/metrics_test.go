package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs.")
	g := r.NewGauge("depth", "Depth.")
	r.NewGaugeFunc("cap", "Capacity.", func() float64 { return 8 })
	r.NewCounterFunc("exec_total", "Executed.", func() int64 { return 42 })

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter %d, want 5", c.Value())
	}
	g.Set(3)
	g.Add(-0.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge %v, want 2.5", g.Value())
	}

	out := render(r)
	for _, want := range []string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 5",
		"# TYPE depth gauge",
		"depth 2.5",
		"cap 8",
		"# TYPE exec_total counter",
		"exec_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if strings.Index(out, "jobs_total") > strings.Index(out, "exec_total") {
		t.Error("render does not preserve registration order")
	}
}

func TestCounterDecrementPanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup", "")
}

// TestDuplicateRegistrationPanicNamesOffender pins the panic message: a
// wiring bug at startup must identify which series collided, not just
// that one did (the op-derived finereg_sim_* series make collisions easy
// to introduce from far-apart packages).
func TestDuplicateRegistrationPanicNamesOffender(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("finereg_sim_gpu_cycles_total", "")
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, `"finereg_sim_gpu_cycles_total"`) {
			t.Fatalf("panic %v does not name the duplicated series", v)
		}
	}()
	r.NewCounterFunc("finereg_sim_gpu_cycles_total", "", func() int64 { return 0 })
}

func TestHistogramBucketsCumulate(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	out := render(r)
	for _, want := range []string{
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 106.05",
		"lat_count 5",
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundsMustAscend(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	r.NewHistogram("bad", "", []float64{1, 1})
}

// TestHistogramObserveConcurrent hammers Observe from many goroutines,
// interleaved with scrapes, and checks the final buckets account for
// every observation exactly — no update lost between the bucket scan and
// the locked count/sum update. Run under -race this also proves the
// immutable-bounds scan outside the lock is safe.
func TestHistogramObserveConcurrent(t *testing.T) {
	const (
		workers = 16
		perG    = 500
	)
	r := NewRegistry()
	h := r.NewHistogram("obs", "", []float64{1, 2, 4, 8})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				h.Observe(float64(k % 10))
				if k%32 == i%32 {
					var sb strings.Builder
					r.Render(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if n := h.Count(); n != workers*perG {
		t.Fatalf("count %d, want %d", n, workers*perG)
	}
	// Each goroutine observes 0..9 fifty times: per goroutine sum is
	// 45*50, and the le="4" cumulative bucket holds values 0..4.
	out := render(r)
	wantSum := formatFloat(float64(workers) * perG / 10 * 45)
	if !strings.Contains(out, "obs_sum "+wantSum) {
		t.Errorf("render lacks exact sum %s:\n%s", wantSum, out)
	}
	if want := `obs_bucket{le="4"} ` + formatInt(workers*perG/2); !strings.Contains(out, want) {
		t.Errorf("render lacks %q:\n%s", want, out)
	}
}

func formatInt(n int) string { return strconv.Itoa(n) }

// TestFuncVecRender pins the labeled-family exposition: one HELP/TYPE
// header, one child line per label value in insertion order, counters as
// integers and gauges in float formatting, late Add and Remove honored.
func TestFuncVecRender(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterFuncVec("hits_total", "Hits by source.", "source")
	cv.Add("mem", func() int64 { return 7 })
	cv.Add("disk", func() int64 { return 3 })
	gv := r.NewGaugeFuncVec("node_up", "Node liveness.", "node")
	gv.Add("http://a:1", func() float64 { return 1 })

	// Children can join after registration (nodes joining a fleet).
	cv.Add("late", func() int64 { return 0 })
	gv.Add("http://b:2", func() float64 { return 0.5 })

	out := render(r)
	for _, want := range []string{
		"# HELP hits_total Hits by source.",
		"# TYPE hits_total counter",
		`hits_total{source="mem"} 7`,
		`hits_total{source="disk"} 3`,
		`hits_total{source="late"} 0`,
		"# TYPE node_up gauge",
		`node_up{node="http://a:1"} 1`,
		`node_up{node="http://b:2"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE hits_total counter") != 1 {
		t.Error("labeled family rendered more than one TYPE header")
	}
	if strings.Index(out, `source="mem"`) > strings.Index(out, `source="disk"`) {
		t.Error("labeled children not in insertion order")
	}

	// Replacing a child's function is idempotent re-registration, not a
	// duplicate panic; removing drops the line.
	cv.Add("mem", func() int64 { return 8 })
	gv.Remove("http://b:2")
	out = render(r)
	if !strings.Contains(out, `hits_total{source="mem"} 8`) {
		t.Errorf("re-Add did not replace child:\n%s", out)
	}
	if strings.Contains(out, `node_up{node="http://b:2"}`) {
		t.Errorf("Remove left the child behind:\n%s", out)
	}
}

// TestFuncVecConcurrent exercises Add/Remove/Render races.
func TestFuncVecConcurrent(t *testing.T) {
	r := NewRegistry()
	gv := r.NewGaugeFuncVec("v", "", "node")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "n" + strconv.Itoa(i)
			for k := 0; k < 100; k++ {
				gv.Add(name, func() float64 { return float64(k) })
				var sb strings.Builder
				r.Render(&sb)
				if k%10 == 0 {
					gv.Remove(name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentUse exercises every mutator under the race detector.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h", "", DefLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(k))
				var sb strings.Builder
				r.Render(&sb)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Errorf("counter %d, want 800", c.Value())
	}
	if g.Value() != 800 {
		t.Errorf("gauge %v, want 800", g.Value())
	}
	if h.Count() != 800 {
		t.Errorf("histogram count %d, want 800", h.Count())
	}
}

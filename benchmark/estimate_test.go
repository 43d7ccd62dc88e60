package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The cut points must equal Python's statistics.quantiles(v, n=4), which
// the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{4: 0.5, 32: 0.5, 100: 0.90, 200: 0.95, 800: 0.95, 1000: 0.99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	// The serve-mix round reports a warm p95: its warm count must carry it.
	if highestPercentile(fullMix[opWarm]) < 0.95 {
		t.Errorf("%d warm ops a round do not support a p95", fullMix[opWarm])
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	if got := percentile(v, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(v, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestBestOf(t *testing.T) {
	lower := bestOf([]float64{0.45, 0.147, 0.30, 0.148, 0.21}, false)
	if lower.Best != 0.147 || lower.Unsettled || lower.N != 5 || lower.Median != 0.21 {
		t.Errorf("lower-is-better estimate = %+v", lower)
	}
	higher := bestOf([]float64{400, 480, 300, 478}, true)
	if higher.Best != 480 || higher.Unsettled {
		t.Errorf("higher-is-better estimate = %+v", higher)
	}
	// One lucky round with nothing within 5% of it is flagged.
	if e := bestOf([]float64{0.10, 0.147, 0.148}, false); !e.Unsettled {
		t.Errorf("outlier best not flagged: %+v", e)
	}
	if e := bestOf([]float64{1}, false); !e.Unsettled {
		t.Errorf("single sample not flagged: %+v", e)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(c float64) []float64 {
		return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005, c, c * 0.99, c * 1.01, c, c}
	}
	thr := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "y", Better: "lower", Bound: 0.10}
	if v := verdict(thr, tight(100), tight(101)); v != "same" {
		t.Errorf("+1%% throughput = %s, want same", v)
	}
	if v := verdict(thr, tight(100), tight(120)); v != "better" {
		t.Errorf("+20%% throughput = %s, want better", v)
	}
	if v := verdict(thr, tight(100), tight(85)); v != "WORSE" {
		t.Errorf("-15%% throughput = %s, want WORSE", v)
	}
	if v := verdict(lat, tight(100), tight(85)); v != "better" {
		t.Errorf("-15%% latency = %s, want better", v)
	}
	if v := verdict(lat, tight(100), tight(115)); v != "WORSE" {
		t.Errorf("+15%% latency = %s, want WORSE", v)
	}
	noisy := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}
	if v := verdict(thr, noisy, tight(100)); v != "unresolved" {
		t.Errorf("spread wider than bound = %s, want unresolved", v)
	}
	if v := verdict(thr, noisy, tight(200)); v != "better" {
		t.Errorf("noisy but every run better = %s, want better", v)
	}
}

package main

import (
	"math"
	"sort"
)

// The estimator is fixed here and is the same on every commit measured.
//
// Simulation is deterministic and CPU-bound, so interference from the host
// only ever slows it. Back-to-back medians therefore do not repeat on a
// shared box (the same cell takes 0.147 s or 0.45 s depending on which
// multi-second host phase it lands in), while the minimum over repetitions
// spread across the whole run does. Every timing below is a best-of over
// rounds; the round median and quartiles are reported beside it so the
// spread is never hidden.

// estimate is one best-of value with the spread of the rounds behind it.
type estimate struct {
	Best      float64 `json:"best"`
	Median    float64 `json:"round_median"`
	Q1        float64 `json:"round_q1"`
	Q3        float64 `json:"round_q3"`
	N         int     `json:"rounds"`
	Unsettled bool    `json:"unsettled,omitempty"`
}

// settleWithin is how close a second sample must come to the best one for
// the best to count as a repeatable floor rather than a lucky outlier.
const settleWithin = 0.05

// bestOf summarizes per-round values. higher selects which end is best.
// The result is unsettled when no second round lands within 5% of the best.
func bestOf(vals []float64, higher bool) estimate { return bestOfTrimmed(vals, higher, 0) }

// bestOfTrimmed is bestOf after setting aside the skip best values.
func bestOfTrimmed(vals []float64, higher bool, skip int) estimate {
	if len(vals) == 0 {
		return estimate{}
	}
	skip = min(skip, len(vals)-1)
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higher {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	e := estimate{Best: s[skip], N: len(s)}
	e.Q1, e.Median, e.Q3 = quartiles(vals)
	e.Unsettled = len(s) < skip+2 || math.Abs(s[skip+1]-s[skip]) > settleWithin*math.Abs(s[skip])
	return e
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the exclusive method), so spreads
// computed here match the acceptance procedure's. Fewer than two values
// give that value three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// samplesBeyond is the count a percentile needs above it to be reported.
const samplesBeyond = 10

// highestPercentile returns the highest of p50/p90/p95/p99 that still has
// at least ten samples beyond it in a sample of n, or 0.5 when none does
// (the sample then carries a median only).
func highestPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.90, 0.95, 0.99} {
		if float64(n)*(1-p) >= samplesBeyond-1e-9 {
			best = p
		}
	}
	return best
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		t += math.Log(v)
	}
	return math.Exp(t / float64(len(vals)))
}

// safeDiv is a/b, or 0 when b is 0 (a layer the workload never entered).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

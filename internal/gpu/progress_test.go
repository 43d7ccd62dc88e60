package gpu

import (
	"reflect"
	"slices"
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/stats"
	"finereg/internal/trace"
)

// runWithProgress executes one CS run with the given sample period and
// returns the metrics plus every sample delivered.
func runWithProgress(t *testing.T, every int64) (*stats.Metrics, []trace.ProgressSample) {
	t.Helper()
	var samples []trace.ProgressSample
	cfg := Default().Scale(2)
	cfg.ProgressEvery = every
	cfg.Progress = func(s trace.ProgressSample) { samples = append(samples, s) }
	p, _ := kernels.ProfileByName("CS")
	k := kernels.MustBuild(p, 32)
	g := New(cfg, Baseline())
	m, err := g.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	return m, samples
}

func TestProgressSampling(t *testing.T) {
	const every = 1000
	m, samples := runWithProgress(t, every)
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want at least a periodic and a final one", len(samples))
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Fatal("last sample must be the Final one")
	}
	for i, s := range samples[:len(samples)-1] {
		if s.Final {
			t.Fatalf("sample %d marked Final before run end", i)
		}
	}

	// Cycles are strictly increasing and the deltas tile the run exactly.
	var sumDelta int64
	prev := int64(0)
	for i, s := range samples {
		if s.Cycle <= prev && !(i == 0 && s.Cycle > 0) {
			t.Fatalf("sample %d cycle %d not after %d", i, s.Cycle, prev)
		}
		if s.CycleDelta != s.Cycle-prev {
			t.Fatalf("sample %d delta %d, want %d", i, s.CycleDelta, s.Cycle-prev)
		}
		sumDelta += s.CycleDelta
		prev = s.Cycle
	}
	if sumDelta != m.Cycles || last.Cycle != m.Cycles {
		t.Fatalf("deltas sum to %d, final cycle %d, metrics report %d", sumDelta, last.Cycle, m.Cycles)
	}

	// Periodic samples ride the period grid: each fires at the first
	// event step at or after the boundary following the previous sample,
	// so consecutive samples land in strictly increasing period windows.
	// (The old re-anchored sampler — next at fired-step + every — drifted
	// the grid after every idle skip; see the boundary-snap test below.)
	for i := 1; i < len(samples)-1; i++ {
		bound := (samples[i-1].Cycle/every + 1) * every
		if samples[i].Cycle < bound {
			t.Errorf("sample %d at cycle %d fired before boundary %d (prev at %d)",
				i, samples[i].Cycle, bound, samples[i-1].Cycle)
		}
	}

	// The Final sample's cumulative counts agree with the run metrics, and
	// every CTA has retired by then.
	if last.CTAsLaunched != m.CTAsLaunched {
		t.Errorf("final CTAsLaunched %d, metrics %d", last.CTAsLaunched, m.CTAsLaunched)
	}
	if last.Instructions != m.Instructions {
		t.Errorf("final Instructions %d, metrics %d", last.Instructions, m.Instructions)
	}
	if last.GridCTAs != 32 || last.CTAsRetired != 32 {
		t.Errorf("final grid/retired = %d/%d, want 32/32", last.GridCTAs, last.CTAsRetired)
	}
	if last.WallMS < 0 || last.CyclesPerSec < 0 {
		t.Errorf("negative wall/rate: %d ms, %f cyc/s", last.WallMS, last.CyclesPerSec)
	}
}

func TestProgressHugePeriodOnlyFinal(t *testing.T) {
	_, samples := runWithProgress(t, 1<<40)
	if len(samples) != 1 || !samples[0].Final {
		t.Fatalf("got %d samples (final=%v), want exactly one Final sample",
			len(samples), len(samples) > 0 && samples[len(samples)-1].Final)
	}
}

// TestProgressBoundarySnap pins the sampler's grid arithmetic directly:
// after a sample fires at an event step past its boundary (a long idle
// skip), the next boundary is the following multiple of the period — not
// fired-step + period, which drifted the whole grid by the overshoot.
func TestProgressBoundarySnap(t *testing.T) {
	p := newProgressState(func(trace.ProgressSample) {}, 1000)
	if p.nextAt != 1000 {
		t.Fatalf("initial boundary %d, want 1000 (no sample at cycle 0)", p.nextAt)
	}
	g := New(Default().Scale(1), Baseline())
	for _, tc := range []struct {
		firedAt, want int64
	}{
		{1000, 2000},  // on-grid fire
		{2194, 3000},  // overshoot snaps to the next multiple, not 3194
		{9999, 10000}, // just short of a boundary
		{10000, 11000},
		{123456, 124000}, // long idle skip over many boundaries
	} {
		g.sampleProgress(p, tc.firedAt, false)
		if p.nextAt != tc.want {
			t.Errorf("after sample at %d: nextAt %d, want %d", tc.firedAt, p.nextAt, tc.want)
		}
	}
}

func TestProgressByteIdenticalMetrics(t *testing.T) {
	run := func(withProgress bool) interface{} {
		cfg := Default().Scale(2)
		if withProgress {
			cfg.ProgressEvery = 500
			cfg.Progress = func(trace.ProgressSample) {}
		}
		p, _ := kernels.ProfileByName("LB")
		k := kernels.MustBuild(p, 16)
		g := New(cfg, FineRegDefault())
		m, err := g.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	off, on := run(false), run(true)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("metrics differ with progress sampling on:\noff: %+v\non:  %+v", off, on)
	}
}

// TestProgressOpsSumToMetrics checks the Ops deltas against the metrics
// collected from the same tally, policy by policy, and that the policy
// event counters (which no Metrics field mirrors) actually move.
func TestProgressOpsSumToMetrics(t *testing.T) {
	for _, pf := range []PolicyFactory{Baseline(), VirtualThread(), RegDRAM(4), FineRegDefault()} {
		sum := map[string]int64{}
		cfg := Default().Scale(2)
		cfg.ProgressEvery = 1000
		cfg.Progress = func(s trace.ProgressSample) {
			for op, n := range s.Ops {
				if n <= 0 {
					t.Errorf("op %s delta %d: deltas are positive, zeros omitted", op, n)
				}
				sum[op] += n
			}
		}
		m, err := New(cfg, pf).Run(mustKernel(t, "NW", 128))
		if err != nil {
			t.Fatal(err)
		}
		for op, want := range map[string]int64{
			"gpu_cycles":        m.Cycles,
			"gpu_instructions":  m.Instructions,
			"sm_cta_switches":   m.CTASwitches,
			"sm_cta_retired":    m.CTAsLaunched,
			"mem_l2_misses":     m.L2Misses,
			"pcrf_spill_regs":   m.PCRFWrites,
			"regdram_dma_bytes": m.DRAMContextBytes,
		} {
			if sum[op] != want {
				t.Errorf("%s: %s sums to %d, metrics report %d", m.Config, op, sum[op], want)
			}
		}
		switch m.Config {
		case "FineReg":
			if sum["acrf_launches"] != m.CTAsLaunched || sum["pcrf_spills"] == 0 || sum["pcrf_fills"] != sum["pcrf_spills"] {
				t.Errorf("FineReg events: %v", sum)
			}
		case "Reg+DRAM":
			if sum["regdram_dma_spills"] == 0 || sum["regdram_dma_prefetches"] != sum["regdram_dma_spills"] {
				t.Errorf("Reg+DRAM events: %v", sum)
			}
		}
		for op := range sum {
			if !slices.Contains(OpNames(), op) {
				t.Errorf("%s: op %q is not in OpNames", m.Config, op)
			}
		}
	}
}

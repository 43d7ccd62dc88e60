package experiments

import (
	"strings"
	"testing"

	"finereg/internal/kernels"
)

// tiny returns a minimal-cost option set: a 2-SM machine with small grids
// over a benchmark subset, enough to exercise every experiment path.
func tiny(benches ...string) Options {
	o := Options{SMs: 2, GridScale: 0.1}
	if len(benches) > 0 {
		o.Benchmarks = benches
	} else {
		o.Benchmarks = []string{"CS", "LB"}
	}
	return o
}

func TestTableIIRendersAllBenchmarks(t *testing.T) {
	r := TableII()
	if len(r.Rows) != 18 {
		t.Fatalf("%d rows, want 18", len(r.Rows))
	}
	out := r.Render()
	for _, b := range kernels.Names() {
		if !strings.Contains(out, b) {
			t.Errorf("Table II render missing %s", b)
		}
	}
	// Classification in the table must match the limiter semantics.
	for _, row := range r.Rows {
		if row.Limiter.IsScheduling() != (row.Class == kernels.TypeS) {
			t.Errorf("%s: limiter %s inconsistent with class %v", row.Abbrev, row.Limiter, row.Class)
		}
	}
}

func TestFigure2ScalingDirections(t *testing.T) {
	r, err := Figure2(tiny("CS", "LB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		for i, sp := range row.Speedup {
			if sp <= 0 {
				t.Errorf("%s %s: speedup %v", row.Bench, Figure2Labels[i], sp)
			}
		}
		// Sched+Mem x2 must be at least as good as either alone (within
		// simulation noise).
		both := row.Speedup[5]
		if both < row.Speedup[1]*0.9 || both < row.Speedup[3]*0.9 {
			t.Errorf("%s: Sched+Mem x2 (%v) should dominate single-resource scaling %v",
				row.Bench, both, row.Speedup)
		}
	}
	if !strings.Contains(r.Render(), "Type-S mean") {
		t.Error("render missing class means")
	}
}

func TestFigure3StaticProperties(t *testing.T) {
	r := Figure3()
	if len(r.Rows) != 18 {
		t.Fatalf("%d rows, want 18", len(r.Rows))
	}
	if r.RegShare < 0.75 || r.RegShare > 0.98 {
		t.Errorf("register share = %.3f, want ~0.887", r.RegShare)
	}
	for _, row := range r.Rows {
		tot := row.RegBytes + row.ShmemBytes
		if tot < 6<<10 || tot > 40<<10 {
			t.Errorf("%s: per-CTA overhead %d outside the paper's 6-37.3KB band", row.Bench, tot)
		}
	}
}

func TestFigure4Ordering(t *testing.T) {
	r, err := Figure4(Options{SMs: 4, GridScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NormPerf) != 4 {
		t.Fatalf("%d configs, want 4", len(r.NormPerf))
	}
	if r.NormPerf[0] != 1.0 {
		t.Errorf("baseline must normalize to 1.0, got %v", r.NormPerf[0])
	}
	// Full RF must help CS (the Section III-B observation) and ideal
	// hardware must be the best configuration.
	if r.NormPerf[1] <= 1.0 {
		t.Errorf("Full RF speedup %v, want > 1.0", r.NormPerf[1])
	}
	best := 0
	for i, p := range r.NormPerf {
		if p > r.NormPerf[best] {
			best = i
		}
	}
	if best != 3 {
		t.Errorf("ideal hardware should win, got %s (%v)", r.Labels[best], r.NormPerf)
	}
}

func TestFigure5Bounds(t *testing.T) {
	r, err := Figure5(tiny("CS", "MC"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.WindowsObserved == 0 {
			t.Errorf("%s: no usage windows observed", row.Bench)
			continue
		}
		if row.Min < 0 || row.Max > 1 || row.Mean < row.Min || row.Mean > row.Max {
			t.Errorf("%s: inconsistent bounds min=%v mean=%v max=%v", row.Bench, row.Min, row.Mean, row.Max)
		}
		if row.Max >= 1.0 {
			t.Errorf("%s: full register file in use (%v) — over-allocation premise broken", row.Bench, row.Max)
		}
	}
	if r.MeanUsage <= 0 || r.MeanUsage >= 1 {
		t.Errorf("suite mean usage = %v, want in (0,1)", r.MeanUsage)
	}
}

func TestTableIIIPositive(t *testing.T) {
	r, err := TableIII(tiny("CS", "LB"))
	if err != nil {
		t.Fatal(err)
	}
	for b, c := range r.Cycles {
		if c <= 0 {
			t.Errorf("%s: cycles-to-stall = %v, want > 0", b, c)
		}
	}
	if !strings.Contains(r.Render(), "Table III") {
		t.Error("render missing title")
	}
}

func TestSweepAndDerivedFigures(t *testing.T) {
	s, err := RunSweep(tiny("CS", "LB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 2 || len(s.Runs["CS"]) != 5 {
		t.Fatalf("sweep shape wrong: %d benches x %d configs", len(s.Order), len(s.Runs["CS"]))
	}
	f12 := Figure12(s)
	f13 := Figure13(s)
	f16 := Figure16(s)
	for _, cn := range StandardConfigs() {
		if f12.Mean[cn][0] <= 0 || f13.Mean[cn][0] <= 0 || f16.Norm[cn] <= 0 {
			t.Errorf("%s: non-positive derived means", cn)
		}
	}
	if f13.Mean[CfgBaseline][0] != 1.0 {
		t.Errorf("baseline speedup = %v, want exactly 1", f13.Mean[CfgBaseline][0])
	}
	if f16.Norm[CfgBaseline] != 1.0 {
		t.Errorf("baseline energy = %v, want exactly 1", f16.Norm[CfgBaseline])
	}
	for _, render := range []string{f12.Render(), f13.Render(), f16.Render()} {
		if !strings.Contains(render, "CS") && !strings.Contains(render, "Baseline") {
			t.Error("render missing expected content")
		}
	}
}

func TestFigure15TrafficNormalized(t *testing.T) {
	opts := tiny()
	opts.Benchmarks = nil // Figure15 uses its own fixed trio
	r, err := Figure15(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Figure15Benches {
		if r.Traffic[b][CfgBaseline] != 1.0 {
			t.Errorf("%s baseline traffic = %v, want 1.0", b, r.Traffic[b][CfgBaseline])
		}
		// Reg+DRAM may only add traffic, never remove demand.
		if r.Traffic[b][CfgRegDRAM] < 0.9 {
			t.Errorf("%s Reg+DRAM traffic = %v, implausibly low", b, r.Traffic[b][CfgRegDRAM])
		}
		if r.ContextBytes[b][CfgVT] != 0 || r.ContextBytes[b][CfgBaseline] != 0 {
			t.Errorf("%s: VT/baseline must have zero context traffic", b)
		}
	}
}

func TestFigure17SplitsCoverFile(t *testing.T) {
	for _, s := range Figure17Splits {
		if s.ACRF+s.PCRF != 256 {
			t.Errorf("split %d/%d does not cover the 256KB register file", s.ACRF, s.PCRF)
		}
	}
	r, err := Figure17(tiny("CS", "LB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NormPerf) != len(Figure17Splits) {
		t.Fatalf("%d results, want %d", len(r.NormPerf), len(Figure17Splits))
	}
}

func TestFigure18ScalesWorkload(t *testing.T) {
	opts := tiny()
	r, err := Figure18(opts, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("%d points, want 2", len(r.Points))
	}
	for _, p := range r.Points {
		if p.FineRegSpeedup <= 0 || p.ResourceSpeedup <= 0 {
			t.Errorf("SMs=%d: non-positive speedups %+v", p.SMs, p)
		}
		if p.OverheadMB < 0 {
			t.Errorf("SMs=%d: negative overhead", p.SMs)
		}
	}
	if r.Points[1].OverheadMB <= r.Points[0].OverheadMB {
		t.Error("resource overhead must grow with machine size")
	}
}

func TestFigure19UMOrdering(t *testing.T) {
	r, err := Figure19(tiny("BI", "LB"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean[2] < r.Mean[0] {
		t.Errorf("FineReg+UM (%v) should beat UM-only (%v)", r.Mean[2], r.Mean[0])
	}
}

func TestUnknownConfigRejected(t *testing.T) {
	if _, err := tiny().matrix(column{cn: ConfigName("bogus")}); err == nil {
		t.Error("matrix should reject an unknown configuration")
	}
	if _, err := specFor(ConfigName("bogus")); err == nil {
		t.Error("specFor should reject an unknown configuration")
	}
}

func TestOptionsProfileScalesFootprint(t *testing.T) {
	p16, err := Paper().profile("CS")
	if err != nil {
		t.Fatal(err)
	}
	p4, err := Quick().profile("CS")
	if err != nil {
		t.Fatal(err)
	}
	if p4.FootprintKB*4 != p16.FootprintKB {
		t.Errorf("footprint scaling: 4-SM %dKB vs 16-SM %dKB", p4.FootprintKB, p16.FootprintKB)
	}
	orig, _ := kernels.ProfileByName("CS")
	if p16.FootprintKB != orig.FootprintKB {
		t.Error("16-SM options must not alter the reference footprint")
	}
}

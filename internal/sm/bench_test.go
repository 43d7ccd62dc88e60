package sm

import (
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/mem"
)

// benchTick steps one SM through an endless grid of bench's CTAs and
// reports host time per issued warp-instruction — the unit the whole
// simulator's speed is made of.
func benchTick(b *testing.B, bench string) {
	prof, err := kernels.ProfileByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	k := kernels.MustBuild(prof, prof.GridCTAs)
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	s := New(0, Default(), hier, &sliceDisp{total: 1 << 40}, &nullPolicy{})
	s.BindKernel(NewProgInfo(k, s.Cfg), 0)
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _ := s.Tick(now)
		now = max(next, now+1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Cnt.Instructions), "ns/warp-instr")
}

// BenchmarkTick: SG issues nearly every cycle (scoreboard-ready ALU work);
// MC spends its ticks blocking warps on loads and waking them; NW blocks 0.6
// times per instruction on short dependences, so it is the block → wake round
// trip through the ready mask, and its small CTAs turn over quickly through
// the warp-context pool.
func BenchmarkTick(b *testing.B) {
	for _, bench := range []string{"SG", "MC", "NW"} {
		b.Run(bench, func(b *testing.B) { benchTick(b, bench) })
	}
}

// BenchmarkEventHeap is the block/wake round trip through a realistic
// queue: a short wait pushed on top of ~60 resident long (DRAM-bound)
// waits, then popped.
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	w := &Warp{}
	for i := 0; i < 60; i++ {
		h.push(event{at: int64(1)<<40 + int64(i*37%60), warp: w})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.push(event{at: int64(i) + 4, warp: w})
		h.pop()
	}
}

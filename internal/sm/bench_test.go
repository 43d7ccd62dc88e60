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

// BenchmarkEventQueue is the block → wake round trip of one warp on top of
// ~60 resident long (DRAM-bound) waits: through the wake ring (an ALU
// dependence, 4 cycles), through the queue (an L2 hit, 188 cycles), and in
// the 7:1 mix the simulated kernels produce.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name string
		lat  [8]int64
	}{
		{"ring", [8]int64{4, 4, 4, 4, 4, 4, 4, 4}},
		{"far", [8]int64{188, 188, 188, 188, 188, 188, 188, 188}},
		{"mixed", [8]int64{4, 16, 4, 28, 4, 188, 24, 4}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(0, Default(), nil, nil, &nullPolicy{})
			c := &CTA{State: CTAActive, Warps: make([]*Warp, 61)}
			for i := range c.Warps {
				c.Warps[i] = &Warp{CTA: c, Idx: i}
			}
			s.enterActive(c, 0, 0)
			for i, w := range c.Warps[1:] {
				s.block(w, int64(1)<<40+int64(i*37%60), 0, 0)
			}
			w := c.Warps[0]
			var now int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				until := now + bc.lat[i&7]
				s.block(w, until, now, 0)
				now = s.NextEventAt(now + 1)
				s.drain(now)
				if now != until || w.asleep {
					b.Fatalf("blocked until %d, cycle %d: asleep=%v", until, now, w.asleep)
				}
			}
		})
	}
}

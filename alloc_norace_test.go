//go:build !race

package finereg

import (
	"runtime"
	"testing"
)

// TestWarmRunAllocatesNoMachine: a released machine's SMs — warp contexts,
// CTA records, L1 tags, event queues, scheduler state — and its L2 tags
// serve the next run, so a warm run allocates its kernel, its policies and
// its result and nothing that grows with the machine. A 2-SM FineReg CS run
// of 16 CTAs allocated 67 728 bytes when every run built its machine, and
// 15 800 when every run built its program (program, liveness, issue
// table); with the program table's value shared, it allocates 4 656 — a
// kernel header, the policies and the result — and the bound leaves 1.4 KiB
// of margin over that. (Not under -race: the detector's instrumentation
// allocates on its own account, and its sync.Pool drops items at random.)
func TestWarmRunAllocatesNoMachine(t *testing.T) {
	cfg := ScaledConfig(2)
	run := func() {
		if _, err := RunBenchmark(cfg, "CS", 16, FineReg()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC() // twice: a released machine outlives one collection
	runtime.GC()
	run() // warm-up: builds the machine the measured run takes over
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 6<<10 {
		t.Errorf("a warm 2-SM run allocates %d bytes, want < 6 KiB", got)
	}
}

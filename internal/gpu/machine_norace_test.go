//go:build !race

package gpu

import (
	"runtime"
	"testing"

	"finereg/internal/sm"
)

// TestMachineBytesTracksNew: admission bounds a machine by MachineBytes, so
// the count must follow what a machine really holds. For Table I on 2 SMs, a
// wide SM of 512 warp slots on 16 schedulers and a 4 MiB L1, it stays within
// 2× of what a cold New and a run that fills every warp slot at once
// allocate. (Not under -race: the detector's instrumentation allocates on
// its own account.)
func TestMachineBytesTracksNew(t *testing.T) {
	wide := Default().Scale(2)
	wide.SM.MaxWarps, wide.SM.NumSchedulers = 512, 16
	wide.SM.MaxCTAs, wide.SM.MaxResidentCTAs, wide.SM.MaxThreads = 256, 256, 512*32
	wide.SM.RegFileBytes, wide.SM.SharedMemBytes = 512*16*sm.WarpRegBytes, 256*2048
	bigL1 := Default().Scale(4)
	bigL1.SM.L1Bytes = 4 << 20
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Table I, 2 SMs", Default().Scale(2)},
		{"512 warps on 16 schedulers", wide},
		{"4 MiB L1", bigL1},
	} {
		// CS has 2 warps, 16 registers and 2 KiB of shared memory a CTA: a
		// grid of MaxWarps/2 CTAs an SM is resident all at once.
		k := mustKernel(t, "CS", c.cfg.NumSMs*c.cfg.SM.MaxWarps/2)
		runtime.GC() // twice: a released machine outlives one collection
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(c.cfg, Baseline()).Run(k); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.ReadMemStats(&after)
		got, want := int64(after.TotalAlloc-before.TotalAlloc), MachineBytes(c.cfg)
		t.Logf("%s: MachineBytes %d, allocated %d", c.name, want, got)
		if want > 2*got || got > 2*want {
			t.Errorf("%s: MachineBytes %d, a cold machine run to full residency allocated %d", c.name, want, got)
		}
	}
}

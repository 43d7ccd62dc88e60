//go:build !race

package runner

import (
	"runtime"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
)

// TestValidateAllocatesNoCacheArrays: admission checks a machine's cache
// geometry, it does not build the caches. Validating a 16-SM profile job
// used to zero 262 KiB of L1 and L2 tag and stamp arrays and throw them
// away; the whole call now fits a 2 KiB budget. (Not under -race: the
// detector's instrumentation allocates on its own account.)
func TestValidateAllocatesNoCacheArrays(t *testing.T) {
	p, err := kernels.ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Cfg: gpu.Default(), Profile: p, Grid: p.GridCTAs, Policy: FineRegDefault()}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function runs+1 times.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perCall >= 2<<10 {
		t.Errorf("Validate of a 16-SM profile job allocates %d bytes (%.0f objects) per call, want < 2 KiB", perCall, allocs)
	}
}

package experiments

import (
	"testing"

	"finereg/internal/runner"
)

// TestFigure2BarrierRegression pins the barrier-park scheduler bug: SG's
// per-iteration CTA barriers once deadlocked under Figure 2's scaled
// configurations because parked warps stayed schedulable and corrupted the
// awake-warp accounting.
func TestFigure2BarrierRegression(t *testing.T) {
	o := Quick()
	o.Benchmarks = []string{"SG"}
	if _, err := Figure2(o); err != nil {
		t.Fatal(err)
	}
}

// TestFineRegAdmissionControlRegression pins the PR 3 PCRF
// overcommit-thrash fix on the cell where it was worst. FD's quick-scale
// point runs many CTAs whose live sets are far below the free-space
// monitor's granule, so before the fix stall-driven switches kept
// launching fresh CTAs until the pending population outgrew the PCRF;
// depletion blocks then pinned stalled CTAs in the ACRF and
// register-depletion stalls burned ~8% of all cycles (enough to drop
// FineReg below VT+RegMutex on the headline sweep). With launch
// admission control the same cell runs essentially depletion-free.
func TestFineRegAdmissionControlRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale simulation cell")
	}
	o := Quick()
	o.Benchmarks = []string{"FD"}
	cell, err := o.matrix(column{spec: runner.FineRegDefault()})
	if err != nil {
		t.Fatal(err)
	}
	m := cell.runs[0][0].Metrics
	if m.CTASwitches == 0 {
		t.Fatal("FD/FineReg performed no CTA switches; the cell no longer exercises the PCRF")
	}
	// RegDepletionStallCycles sums over SMs: compare against the total
	// SM-cycle budget (Cycles × SMs) for the per-SM 5% threshold.
	if 20*m.RegDepletionStallCycles > m.Cycles*int64(o.SMs) {
		t.Errorf("register-depletion stalls %d of %d SM-cycles (>5%%): PCRF launch admission control has regressed",
			m.RegDepletionStallCycles, m.Cycles*int64(o.SMs))
	}
}

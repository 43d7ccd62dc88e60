// grid.go extends the auditor with the grid accounting invariants: the
// dispatcher must hand out CTA IDs only within the kernel's grid, and
// every hand-out must be conserved into exactly one launch on one SM.
// These are the cross-SM analogue of CheckSM's per-SM occupancy rules — a
// CTA ID handed out twice, or never launched, corrupts every metric
// silently.
package audit

import (
	"fmt"

	"finereg/internal/sm"
)

// Grid describes the machine's one grid for the accounting checks. gpu's
// run loop refreshes it from the live dispatcher each audit step; the
// struct holds plain values so audit needs no gpu import.
type Grid struct {
	// SMs is the machine, in ascending index order. Every SM binds the
	// kernel once, fresh, so its CTAsLaunched counts this grid's launches.
	SMs []*sm.SM
	// Dispatched is how many CTA IDs the dispatcher has handed out; Total
	// is the kernel's grid size.
	Dispatched, Total int
}

// CheckGrid verifies the grid accounting invariants at cycle now and
// returns the first *Violation, or nil:
//
//	dispatchBounds       0 <= Dispatched <= Total
//	launchConservation   Σ over the SMs of CTAsLaunched == Dispatched
//	ctaRange, ctaDup     resident CTA IDs lie in [0, Total) and are
//	                     unique across the machine
//
// Like CheckSM it must run between event steps (mid-Tick, a hand-out can
// be in flight between NextCTAID and the launch counter increment).
func CheckGrid(g Grid, now int64) error {
	fail := func(smID int, rule string, got, want int64, detail string) error {
		return &Violation{SM: smID, Cycle: now, Rule: rule, Got: got, Want: want, Detail: detail}
	}
	if g.Dispatched < 0 || g.Dispatched > g.Total {
		return fail(-1, "grid:dispatchBounds", int64(g.Dispatched), int64(g.Total),
			"dispatched CTA count outside [0, grid]")
	}
	var launched int64
	seen := make(map[int]int, 64) // CTA ID -> SM holding it
	for _, s := range g.SMs {
		launched += s.Cnt.CTAsLaunched
		for _, c := range s.Residents() {
			if c.ID < 0 || c.ID >= g.Total {
				return fail(s.ID, "grid:ctaRange", int64(c.ID), int64(g.Total),
					fmt.Sprintf("resident CTA %d outside the grid [0,%d)", c.ID, g.Total))
			}
			if prev, dup := seen[c.ID]; dup {
				return fail(s.ID, "grid:ctaDup", int64(c.ID), int64(c.ID),
					fmt.Sprintf("CTA %d resident on both SM%d and SM%d", c.ID, prev, s.ID))
			}
			seen[c.ID] = s.ID
		}
	}
	if launched != int64(g.Dispatched) {
		return fail(-1, "grid:launchConservation", launched, int64(g.Dispatched),
			"per-SM launches vs dispatcher hand-outs")
	}
	return nil
}

// StepGrid applies CheckGrid under the auditor's failure mode: fail-fast
// returns the violation, collect mode records it into the run's harvest
// and lets the simulation continue.
func (a *Auditor) StepGrid(g Grid, now int64) error {
	err := CheckGrid(g, now)
	if err == nil || !a.opts.ContinueOnViolation {
		return err
	}
	a.record(err)
	return nil
}

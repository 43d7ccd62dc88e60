package audit

import (
	"fmt"

	"finereg/internal/mem"
	"finereg/internal/sm"
)

// This file extends the invariant catalogue from the SMs to the shared
// memory hierarchy. The counters Figures 14/15 are built from — L1/L2
// hit/miss tallies and the DRAM traffic-class ledger — are maintained
// incrementally on the access path, so they rot exactly the way occupancy
// counters do: one transfer booked to the wrong class and the Figure 15
// breakdown is silently wrong while every simulation still "passes".
//
// Hierarchy-level invariants (cross-SM, checked on full sweeps and at
// end of run):
//
//	mem:l2Conservation  L2 hits + misses == accesses
//	mem:l1l2Accesses    Σ per-SM L1 misses == L2 accesses (the demand
//	                    path is the L2's only client; policy transfers
//	                    bypass it straight to DRAM)
//	mem:demandBytes     DRAM demand-class bytes == L2 misses × LineBytes
//	                    (each L2 miss moves exactly one line)
//	mem:dramLedger      Σ per-class ledger == independently counted
//	                    gross bytes
//
// Per-SM L1 conservation/residency lives in CheckSM.

// CheckHierarchy verifies the shared L2 + DRAM invariants against the
// SMs' L1 counters at cycle now. Violations carry SM = -1 (the hierarchy
// is machine-global).
func CheckHierarchy(sms []*sm.SM, h *mem.Hierarchy, now int64) error {
	if h == nil {
		return nil
	}
	fail := func(rule string, got, want int64, detail string) error {
		return &Violation{SM: -1, Cycle: now, Rule: rule, Got: got, Want: want, Detail: detail}
	}

	if l2 := h.L2; l2 != nil {
		if l2.Hits+l2.Misses != l2.Accesses {
			return fail("mem:l2Conservation", l2.Hits+l2.Misses, l2.Accesses,
				fmt.Sprintf("hits %d + misses %d vs accesses", l2.Hits, l2.Misses))
		}
		var l1Misses int64
		for _, s := range sms {
			l1Misses += s.L1.Misses
		}
		if l1Misses != l2.Accesses {
			return fail("mem:l1l2Accesses", l1Misses, l2.Accesses,
				"sum of per-SM L1 misses vs L2 probes")
		}
		if d := h.DRAM; d != nil {
			if want := l2.Misses * mem.LineBytes; d.Bytes(mem.TrafficDemand) != want {
				return fail("mem:demandBytes", d.Bytes(mem.TrafficDemand), want,
					fmt.Sprintf("demand traffic vs %d L2 misses x %d B lines", l2.Misses, mem.LineBytes))
			}
		}
	}
	if d := h.DRAM; d != nil {
		if d.TotalBytes() != d.GrossBytes() {
			return fail("mem:dramLedger", d.TotalBytes(), d.GrossBytes(),
				"per-class ledger sum vs gross transfer count")
		}
	}
	return nil
}

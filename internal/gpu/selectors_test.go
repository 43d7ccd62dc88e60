package gpu

import (
	"testing"

	"finereg/internal/mem"
	"finereg/internal/sm"
)

// The scans the policies carried before resident selection moved into sm,
// kept as the reference: the lowest-ID resident among the matches, found
// without assuming any order of the resident list.

func lowestIDReadyPending(s *sm.SM, st sm.CTAState, now int64) *sm.CTA {
	var best *sm.CTA
	for _, c := range s.Residents() {
		if c.State == st && c.ReadyAt <= now {
			if best == nil || c.ID < best.ID {
				best = c
			}
		}
	}
	return best
}

func lowestIDStalledActive(s *sm.SM) *sm.CTA {
	var best *sm.CTA
	for _, c := range s.Residents() {
		if c.State == sm.CTAActive && c.FullyStalled() {
			if best == nil || c.ID < best.ID {
				best = c
			}
		}
	}
	return best
}

// selectorCheck wraps a policy and, on entry to every switch decision,
// compares the SM's selectors with the reference scans. FineReg's deleted
// scan ranked candidates by the status monitor's switch priority before ID;
// every pending CTA has rank 1, which its monitorConsistent account asserts
// and is re-checked here, so rank-then-ID is ID.
type selectorCheck struct {
	sm.Policy
	t               *testing.T
	checks, matches *int
}

func (p *selectorCheck) check(s *sm.SM, now int64) {
	*p.checks++
	for _, st := range []sm.CTAState{sm.CTAPendingRF, sm.CTAPendingPCRF, sm.CTAPendingDRAM} {
		got, want := s.ReadyPending(st, now), lowestIDReadyPending(s, st, now)
		if got != want {
			p.t.Fatalf("%s @%d: ReadyPending(%d) = %v, lowest-ID scan = %v", p.Name(), now, st, got, want)
		}
		if got != nil {
			*p.matches++
		}
	}
	if got, want := s.StalledActive(), lowestIDStalledActive(s); got != want {
		p.t.Fatalf("%s @%d: StalledActive = %v, lowest-ID scan = %v", p.Name(), now, got, want)
	} else if got != nil {
		*p.matches++
	}
	if a, ok := p.Policy.(sm.SelfAuditing); ok {
		for _, acc := range a.AuditAccounting(s) {
			if acc.Name == "monitorConsistent" && acc.Value != acc.Expected {
				p.t.Fatalf("%s @%d: %d of %d residents have the monitor encoding of their state",
					p.Name(), now, acc.Value, acc.Expected)
			}
		}
	}
}

func (p *selectorCheck) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	p.check(s, now)
	p.Policy.OnCTAStalled(s, c, now)
}

func (p *selectorCheck) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	p.check(s, now)
	p.Policy.OnCTAReady(s, c, now)
}

// AllowIssue forwards the wrapped policy's issue gate (RegMutex's), which
// embedding the interface does not promote.
func (p *selectorCheck) AllowIssue(s *sm.SM, w *sm.Warp, now int64) bool {
	g, ok := p.Policy.(sm.IssueGate)
	return !ok || g.AllowIssue(s, w, now)
}

// TestSelectorsMatchLowestIDScan: at every OnCTAStalled and OnCTAReady of a
// Type-R (LI) and a Type-S (NW) run under each switching policy, the SM's
// first-match selectors return what the deleted lowest-ID scans return.
func TestSelectorsMatchLowestIDScan(t *testing.T) {
	for name, pf := range map[string]PolicyFactory{
		"vt": VirtualThread(), "regdram": RegDRAM(4), "regmutex": VTRegMutex(0.25), "finereg": FineRegDefault(),
	} {
		for _, bench := range []string{"LI", "NW"} {
			t.Run(bench+"/"+name, func(t *testing.T) {
				var checks, matches int
				wrapped := func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
					return &selectorCheck{Policy: pf(cfg, hier), t: t, checks: &checks, matches: &matches}
				}
				if _, err := New(Default().Scale(2), wrapped).Run(mustKernel(t, bench, 96)); err != nil {
					t.Fatal(err)
				}
				if checks == 0 || matches == 0 {
					t.Fatalf("vacuous run: %d decisions checked, %d with a candidate", checks, matches)
				}
				t.Logf("%d decisions checked, %d selector results non-nil", checks, matches)
			})
		}
	}
}

package audit_test

import (
	"errors"
	"testing"

	"finereg/internal/audit"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

// midRun advances a rig until its memory counters are live and returns
// the stop cycle; the CS kernel is memory-heavy, so a few thousand cycles
// guarantee L1/L2/DRAM traffic.
func midRun(t *testing.T, r *rig) int64 {
	t.Helper()
	at := r.run(t, func(now int64) bool { return now < 5000 })
	if r.s.L1.Accesses == 0 || r.s.Hier.L2.Accesses == 0 {
		t.Fatalf("rig produced no memory traffic (L1 %d, L2 %d accesses)",
			r.s.L1.Accesses, r.s.Hier.L2.Accesses)
	}
	return at
}

// TestMemCleanRun: the memory conservation invariants hold at every event
// step of an unmodified run, SM-level and hierarchy-level both.
func TestMemCleanRun(t *testing.T) {
	r := newRig(t, 48)
	sms := []*sm.SM{r.s}
	end := r.run(t, func(now int64) bool {
		if err := audit.CheckSM(r.s, now); err != nil {
			t.Fatalf("CheckSM at %d: %v", now, err)
		}
		if err := audit.CheckHierarchy(sms, r.s.Hier, now); err != nil {
			t.Fatalf("CheckHierarchy at %d: %v", now, err)
		}
		return true
	})
	if r.s.Hier.DRAM.GrossBytes() == 0 {
		t.Fatal("run produced no DRAM traffic; hierarchy checks were vacuous")
	}
	if err := audit.CheckHierarchy(sms, r.s.Hier, end); err != nil {
		t.Errorf("drained machine fails hierarchy audit: %v", err)
	}
}

// TestMemSkewCaught is the mutation test for the L1 conservation check:
// a skipped hit or miss increment must fire mem:l1Conservation, and
// reverting the skew must restore a clean audit.
func TestMemSkewCaught(t *testing.T) {
	r := newRig(t, 48)
	at := midRun(t, r)
	for _, c := range []string{"hits", "misses", "accesses"} {
		c := c
		t.Run(c, func(t *testing.T) {
			r.s.InjectMemSkew(c, -1)
			err := audit.CheckSM(r.s, at)
			r.s.InjectMemSkew(c, +1)
			var v *audit.Violation
			if !errors.As(err, &v) {
				t.Fatalf("skewed L1 %s: want *audit.Violation, got %v", c, err)
			}
			if v.Rule != "mem:l1Conservation" {
				t.Errorf("skewed L1 %s blames rule %q, want mem:l1Conservation", c, v.Rule)
			}
			if err := audit.CheckSM(r.s, at); err != nil {
				t.Errorf("after reverting L1 %s skew: %v", c, err)
			}
		})
	}
}

// TestHierarchySkewCaught seeds one drift per hierarchy rule and checks
// each is caught under its own name.
func TestHierarchySkewCaught(t *testing.T) {
	r := newRig(t, 48)
	at := midRun(t, r)
	sms := []*sm.SM{r.s}
	check := func() error { return audit.CheckHierarchy(sms, r.s.Hier, at) }
	if err := check(); err != nil {
		t.Fatalf("pre-skew hierarchy audit not clean: %v", err)
	}

	expect := func(t *testing.T, err error, rule string) {
		t.Helper()
		var v *audit.Violation
		if !errors.As(err, &v) {
			t.Fatalf("want *audit.Violation for %s, got %v", rule, err)
		}
		if v.Rule != rule {
			t.Errorf("violation blames rule %q, want %q", v.Rule, rule)
		}
		if v.SM != -1 {
			t.Errorf("hierarchy violation carries SM %d, want -1", v.SM)
		}
	}

	t.Run("l2Conservation", func(t *testing.T) {
		r.s.Hier.L2.InjectAuditSkew("hits", 1)
		expect(t, check(), "mem:l2Conservation")
		r.s.Hier.L2.InjectAuditSkew("hits", -1)
	})
	t.Run("l1l2Accesses", func(t *testing.T) {
		// An L1 miss that never probed the L2 — the forgotten-probe bug.
		r.s.Hier.L2.InjectAuditSkew("accesses", 1)
		r.s.Hier.L2.InjectAuditSkew("hits", 1) // keep L2 self-consistent
		expect(t, check(), "mem:l1l2Accesses")
		r.s.Hier.L2.InjectAuditSkew("accesses", -1)
		r.s.Hier.L2.InjectAuditSkew("hits", -1)
	})
	t.Run("demandBytes", func(t *testing.T) {
		r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficDemand, mem.LineBytes)
		expect(t, check(), "mem:demandBytes")
		r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficDemand, -mem.LineBytes)
	})
	t.Run("dramLedger", func(t *testing.T) {
		// A transfer booked to the wrong class: the class ledger drifts from
		// the independently counted gross bytes.
		r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficContext, mem.LineBytes)
		expect(t, check(), "mem:dramLedger")
		r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficContext, -mem.LineBytes)
	})

	if err := check(); err != nil {
		t.Fatalf("post-revert hierarchy audit not clean: %v", err)
	}
}

// TestAuditorSweepsHierarchy wires Hier into an Auditor and checks the
// periodic sweep catches hierarchy drift with no accompanying CTA
// transition.
func TestAuditorSweepsHierarchy(t *testing.T) {
	r := newRig(t, 48)
	a := audit.New(64)
	a.Hier = r.s.Hier
	sms := []*sm.SM{r.s}

	var stepErr error
	end := r.run(t, func(now int64) bool {
		if stepErr = a.Step(sms, now); stepErr != nil {
			return false
		}
		return true
	})
	if stepErr != nil {
		t.Fatalf("clean run: %v", stepErr)
	}
	if err := a.Final(sms, end); err != nil {
		t.Fatalf("drained machine fails Final: %v", err)
	}

	r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficBitvec, 64)
	defer r.s.Hier.DRAM.InjectLedgerSkew(mem.TrafficBitvec, -64)
	var err error
	for now := end + 1; now < end+200; now++ {
		if err = a.Step(sms, now); err != nil {
			break
		}
	}
	var v *audit.Violation
	if !errors.As(err, &v) || v.Rule != "mem:dramLedger" {
		t.Fatalf("periodic sweep missed the ledger skew: %v", err)
	}
}

// TestResidentLines pins the residency accessor the mem:l1Residency rule
// depends on: lines become valid only through miss fills.
func TestResidentLines(t *testing.T) {
	c := mem.MustNewCache(4*mem.LineBytes, 1)
	if c.ResidentLines() != 0 {
		t.Fatalf("fresh cache has %d resident lines", c.ResidentLines())
	}
	c.Access(0)
	c.Access(0)
	if c.ResidentLines() != 1 {
		t.Errorf("after one distinct line: %d resident", c.ResidentLines())
	}
	if c.Hits != 1 || c.Misses != 1 || c.Accesses != 2 {
		t.Errorf("counters hits=%d misses=%d accesses=%d, want 1/1/2", c.Hits, c.Misses, c.Accesses)
	}
	c.Reset()
	if c.ResidentLines() != 0 || c.Hits != 0 {
		t.Errorf("reset left residents=%d hits=%d", c.ResidentLines(), c.Hits)
	}
}

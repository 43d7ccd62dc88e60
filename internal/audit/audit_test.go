package audit_test

import (
	"errors"
	"strings"
	"testing"

	"finereg/internal/audit"
	"finereg/internal/core"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/regfile"
	"finereg/internal/sm"
)

const farFuture = int64(1) << 62

// disp mirrors gpu's grid dispatcher for single-SM rigs.
type disp struct{ next, total int }

func (d *disp) NextCTAID() int {
	if d.next >= d.total {
		return -1
	}
	id := d.next
	d.next++
	return id
}

func (d *disp) Remaining() int { return d.total - d.next }

// rig is one SM running a real benchmark kernel under the VT policy
// (launch + stall + switch + resume + finish transitions all fire).
type rig struct {
	s *sm.SM
	d *disp
}

func newRig(t *testing.T, grid int) *rig {
	t.Helper()
	return newPolicyRig(t, grid, func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
		return regfile.NewVirtualThread(cfg, hier)
	})
}

// newPolicyRig is newRig under the policy mk builds.
func newPolicyRig(t *testing.T, grid int, mk func(sm.Config, *mem.Hierarchy) sm.Policy) *rig {
	t.Helper()
	p, err := kernels.ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.Build(p, grid)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sm.Default()
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	d := &disp{total: grid}
	s := sm.New(0, cfg, hier, d, mk(cfg, hier))
	s.BindKernel(sm.NewProgInfo(k, s.Cfg), 0)
	return &rig{s: s, d: d}
}

// run advances the rig like gpu.Run does, invoking step after every event
// round, until the grid drains or step asks to stop. Returns the final
// cycle.
func (r *rig) run(t *testing.T, step func(now int64) bool) int64 {
	t.Helper()
	var now int64
	for {
		next, _ := r.s.Tick(now)
		if step != nil && !step(now) {
			return now
		}
		if len(r.s.Residents()) == 0 && r.d.Remaining() == 0 {
			return now
		}
		if next == farFuture {
			t.Fatalf("rig deadlocked at cycle %d", now)
		}
		if next <= now {
			next = now + 1
		}
		now = next
		if now > 50_000_000 {
			t.Fatalf("rig runaway at cycle %d", now)
		}
	}
}

// TestCheckSMCleanRun audits every event step of an unmodified run; no
// invariant may fire, from kernel start through the drained end state.
func TestCheckSMCleanRun(t *testing.T) {
	r := newRig(t, 48)
	steps := 0
	end := r.run(t, func(now int64) bool {
		if err := audit.CheckSM(r.s, now); err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		steps++
		return true
	})
	if steps < 100 {
		t.Fatalf("run too short to be meaningful: %d steps", steps)
	}
	if err := audit.CheckSM(r.s, end); err != nil {
		t.Errorf("drained SM fails audit: %v", err)
	}
}

// TestSkewCaught is the acceptance-criterion mutation test: each seeded
// off-by-one in an occupancy counter must be caught by CheckSM under its
// own rule name, and reverting the skew must restore a clean audit.
func TestSkewCaught(t *testing.T) {
	counters := []string{
		"warpsUsed", "threadsUsed", "shmemUsed", "awake", "activeCTAs", "pendingCTAs",
	}
	r := newRig(t, 48)
	// Advance mid-kernel so every counter is live; audit at the cycle the
	// run stopped on (events beyond it are legitimately still queued).
	at := r.run(t, func(now int64) bool { return now < 5000 })
	if r.s.ActiveCTAs() == 0 {
		t.Fatal("rig has no active CTAs mid-run")
	}
	for _, c := range counters {
		c := c
		t.Run(c, func(t *testing.T) {
			r.s.InjectAccountingSkew(c, -1)
			err := audit.CheckSM(r.s, at)
			r.s.InjectAccountingSkew(c, +1)
			var v *audit.Violation
			if !errors.As(err, &v) {
				t.Fatalf("skewed %s: want *audit.Violation, got %v", c, err)
			}
			if v.Rule != c {
				t.Errorf("skewed %s: violation blames rule %q", c, v.Rule)
			}
			if v.Got != v.Want-1 {
				t.Errorf("skewed %s: got=%d want=%d, expected off-by-one", c, v.Got, v.Want)
			}
			if v.Dump == "" {
				t.Errorf("skewed %s: violation carries no state dump", c)
			}
			if err := audit.CheckSM(r.s, at); err != nil {
				t.Errorf("after reverting %s skew: %v", c, err)
			}
		})
	}
}

// TestResidentOrderCaught is the mutation test for residents:ascending, the
// order the SM's first-match selectors (ReadyPending, StalledActive) rely on
// to return the oldest match.
func TestResidentOrderCaught(t *testing.T) {
	r := newRig(t, 48)
	at := r.run(t, func(now int64) bool { return now < 5000 })
	if err := audit.CheckSM(r.s, at); err != nil {
		t.Fatalf("pre-skew audit not clean: %v", err)
	}
	if !r.s.InjectResidentSwap() {
		t.Fatal("fewer than two residents mid-run")
	}
	var v *audit.Violation
	if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
		t.Fatalf("swapped residents: want *audit.Violation, got %v", err)
	}
	if v.Rule != "residents:ascending" {
		t.Errorf("swapped residents blame rule %q, want residents:ascending", v.Rule)
	}
	r.s.InjectResidentSwap()
	if err := audit.CheckSM(r.s, at); err != nil {
		t.Errorf("after swapping back: %v", err)
	}
}

// TestLedgerSkewCaught is the mutation test for the ledger-declared policy
// accounts: one warp-register taken from (or given to) a ledger behind the
// policy's back must be blamed on that ledger's rule.
func TestLedgerSkewCaught(t *testing.T) {
	for _, tc := range []struct {
		rule string
		mk   func(sm.Config, *mem.Hierarchy) sm.Policy
		of   func(sm.Policy) *sm.Ledger
	}{
		{"policy:acrfFree", func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
			return core.NewFineReg(cfg, hier, cfg.RegFileBytes/2, cfg.RegFileBytes/2)
		}, func(p sm.Policy) *sm.Ledger { return p.(*core.FineReg).ACRF() }},
		{"policy:brsFree", func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
			return regfile.NewRegMutex(cfg, hier, 0.25)
		}, func(p sm.Policy) *sm.Ledger { return p.(*regfile.RegMutex).Regs() }},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			r := newPolicyRig(t, 48, tc.mk)
			at := r.run(t, func(now int64) bool { return now < 5000 })
			if err := audit.CheckSM(r.s, at); err != nil {
				t.Fatalf("pre-skew audit not clean: %v", err)
			}
			for _, skew := range []func(*sm.Ledger, int){(*sm.Ledger).Take, (*sm.Ledger).Give} {
				skew(tc.of(r.s.Pol), 1)
				var v *audit.Violation
				if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
					t.Fatalf("skewed ledger: want *audit.Violation, got %v", err)
				}
				if v.Rule != tc.rule {
					t.Errorf("skewed ledger blames rule %q, want %s", v.Rule, tc.rule)
				}
				skew(tc.of(r.s.Pol), -1)
			}
			if err := audit.CheckSM(r.s, at); err != nil {
				t.Errorf("after reverting the skew: %v", err)
			}
		})
	}
}

// TestReadySkewCaught is the mutation test for the ready-mask invariants:
// clearing one bit (a missed readyAdd — the bug class where a woken warp
// silently never issues again) must fire readyCoverage.
func TestReadySkewCaught(t *testing.T) {
	r := newRig(t, 48)
	at := r.run(t, func(now int64) bool {
		return now < 1000 || r.s.AwakeWarps() == 0
	})
	if r.s.AwakeWarps() == 0 {
		t.Fatal("rig never reached a step with awake warps")
	}
	if err := audit.CheckSM(r.s, at); err != nil {
		t.Fatalf("pre-skew audit not clean: %v", err)
	}
	if !r.s.InjectReadySkew() {
		t.Fatal("no ready entry to drop despite awake warps")
	}
	var v *audit.Violation
	if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
		t.Fatalf("dropped ready entry: want *audit.Violation, got %v", err)
	}
	if v.Rule != "readyCoverage" {
		t.Errorf("dropped ready entry blames rule %q, want readyCoverage", v.Rule)
	}
	if v.Got != v.Want-1 {
		t.Errorf("readyCoverage got=%d want=%d, expected off-by-one", v.Got, v.Want)
	}
}

// TestBusySkewCaught is the mutation test for the scoreboard's busy mask:
// a register whose value is still in flight but whose busy bit was lost
// would let a dependent instruction issue early, and nothing but this
// invariant would notice.
func TestBusySkewCaught(t *testing.T) {
	r := newRig(t, 48)
	at := r.run(t, func(now int64) bool { return now < 5000 })
	if err := audit.CheckSM(r.s, at); err != nil {
		t.Fatalf("pre-skew audit not clean: %v", err)
	}
	if !r.s.InjectBusySkew(at) {
		t.Fatal("no register in flight mid-run")
	}
	var v *audit.Violation
	if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
		t.Fatalf("dropped busy bit: want *audit.Violation, got %v", err)
	}
	if v.Rule != "busyMask" {
		t.Errorf("dropped busy bit blames rule %q, want busyMask", v.Rule)
	}
}

// TestRetiredEventCaught is the mutation test for the warp-context pool's
// event rule: a wake event still in the heap when its warp's context retires
// would, once the context is re-armed for another CTA, wake the wrong warp.
func TestRetiredEventCaught(t *testing.T) {
	r := newRig(t, 48)
	// Stop at the first finished CTA, mid-run.
	at := r.run(t, func(now int64) bool { return r.s.Cnt.CTAsLaunched == int64(len(r.s.Residents())) })
	if err := audit.CheckSM(r.s, at); err != nil {
		t.Fatalf("pre-skew audit not clean: %v", err)
	}
	if !r.s.InjectRetiredEvent(at + 1000) {
		t.Fatal("no retired warp context although CTAs have finished")
	}
	var v *audit.Violation
	if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
		t.Fatalf("event for a retired context: want *audit.Violation, got %v", err)
	}
	if v.Rule != "retiredEvent" {
		t.Errorf("event for a retired context blames rule %q, want retiredEvent", v.Rule)
	}
	if v.Got != 1 || v.Want != 0 {
		t.Errorf("retiredEvent got=%d want=%d, expected 1 and 0", v.Got, v.Want)
	}
}

// TestLostWakeCaught is the mutation test for wakeCoverage: a sleeping warp
// with no wake-up registered for its wake time sleeps forever, and where
// that does not deadlock the run it only makes it slower. Stopping points
// are chosen so that both homes of a wake-up are searched: a short
// dependence stall (ring) and a memory stall (queue).
func TestLostWakeCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		far  bool
	}{{"ring", false}, {"queue", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 48)
			sleepsOnly := func(far bool, now int64) bool {
				n := 0
				ok := true
				r.s.EachSchedulerWarp(func(_ int, w *sm.Warp) {
					if w.Asleep() && !w.AtBarrier() {
						n++
						ok = ok && (w.WakeAt()-now >= 32) == far
					}
				})
				return ok && n > 0
			}
			at := r.run(t, func(now int64) bool { return now < 1000 || !sleepsOnly(tc.far, now) })
			if !sleepsOnly(tc.far, at) {
				t.Fatal("rig never reached a step whose sleepers all wait on the wanted structure")
			}
			if err := audit.CheckSM(r.s, at); err != nil {
				t.Fatalf("pre-skew audit not clean: %v", err)
			}
			if !r.s.InjectLostWake() {
				t.Fatal("no wake-up to lose although warps are asleep")
			}
			var v *audit.Violation
			if err := audit.CheckSM(r.s, at); !errors.As(err, &v) {
				t.Fatalf("lost wake-up: want *audit.Violation, got %v", err)
			}
			if v.Rule != "wakeCoverage" {
				t.Errorf("lost wake-up blames rule %q, want wakeCoverage", v.Rule)
			}
		})
	}
}

// TestAuditorStepTriggering drives the Auditor itself: the first step
// sweeps unconditionally, an injected skew is caught by the periodic
// sweep even when no lifecycle transition accompanies it, and Final
// reports leaks on a drained machine.
func TestAuditorStepTriggering(t *testing.T) {
	r := newRig(t, 48)
	a := audit.New(64)
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

	// A skew with no accompanying transition must still be caught once the
	// interval elapses.
	r.s.InjectAccountingSkew("awake", 1)
	defer r.s.InjectAccountingSkew("awake", -1)
	var err error
	for now := end + 1; now < end+200; now++ {
		if err = a.Step(sms, now); err != nil {
			break
		}
	}
	var v *audit.Violation
	if !errors.As(err, &v) || v.Rule != "awake" {
		t.Fatalf("periodic sweep missed the skew: %v", err)
	}
	if !errors.As(a.Final(sms, end+200), &v) {
		t.Fatal("Final missed the skew")
	}
}

// TestDefaultInterval pins New's clamping.
func TestDefaultInterval(t *testing.T) {
	if a := audit.New(0); a.Interval != audit.DefaultInterval {
		t.Errorf("New(0).Interval = %d, want %d", a.Interval, audit.DefaultInterval)
	}
	if a := audit.New(7); a.Interval != 7 {
		t.Errorf("New(7).Interval = %d", a.Interval)
	}
}

// TestViolationRendering checks the error string carries the rule, the
// values, the detail, and the dump.
func TestViolationRendering(t *testing.T) {
	v := &audit.Violation{SM: 3, Cycle: 99, Rule: "warpsUsed", Got: 7, Want: 8,
		Detail: "CTA 5", Dump: "SM3 @99: ..."}
	msg := v.Error()
	for _, want := range []string{"SM3", "cycle 99", "warpsUsed", "= 7", "want 8", "CTA 5", "SM3 @99"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message lacks %q: %s", want, msg)
		}
	}
}

// TestDumpSM wants a non-empty render with per-CTA lines and the policy
// accounting section while CTAs are resident.
func TestDumpSM(t *testing.T) {
	r := newRig(t, 48)
	r.run(t, func(now int64) bool { return now < 2000 })
	if len(r.s.Residents()) == 0 {
		t.Fatal("no residents to dump")
	}
	dump := audit.DumpSM(r.s, 2000)
	if !strings.Contains(dump, "CTA") {
		t.Errorf("dump lacks CTA lines:\n%s", dump)
	}
	if !strings.Contains(dump, "regsFree") {
		t.Errorf("dump lacks policy accounting:\n%s", dump)
	}
}

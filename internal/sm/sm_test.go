package sm

import (
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/mem"
)

// nullPolicy is a baseline-like policy with unbounded registers, for
// exercising the SM machinery in isolation.
type nullPolicy struct{ launched int }

func (n *nullPolicy) Name() string                 { return "null" }
func (n *nullPolicy) KernelStart(s *SM, now int64) {}
func (n *nullPolicy) FillSlots(s *SM, now int64) {
	for s.CanActivateOne(true) {
		if s.LaunchNew(now, 0) == nil {
			return
		}
		n.launched++
	}
}
func (n *nullPolicy) OnCTAStalled(s *SM, c *CTA, now int64)  {}
func (n *nullPolicy) OnCTAReady(s *SM, c *CTA, now int64)    {}
func (n *nullPolicy) OnCTAFinished(s *SM, c *CTA, now int64) {}
func (n *nullPolicy) BlockedOnRegisters() bool               { return false }

type sliceDisp struct{ next, total int }

func (d *sliceDisp) NextCTAID() int {
	if d.next >= d.total {
		return -1
	}
	d.next++
	return d.next - 1
}
func (d *sliceDisp) Remaining() int { return d.total - d.next }

func testSM(t *testing.T, bench string, grid int) (*SM, *kernels.Kernel, *sliceDisp) {
	t.Helper()
	prof, err := kernels.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.MustBuild(prof, grid)
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &sliceDisp{total: grid}
	s := New(0, Default(), hier, disp, &nullPolicy{})
	s.BindKernel(NewProgInfo(k, s.Cfg), 0)
	return s, k, disp
}

// drive runs the SM until idle or the cycle bound, returning the final
// cycle.
func drive(t *testing.T, s *SM, disp *sliceDisp, bound int64) int64 {
	t.Helper()
	var now int64
	for now < bound {
		n, _ := s.Tick(now)
		if len(s.Residents()) == 0 && disp.Remaining() == 0 {
			return now
		}
		if n <= now {
			n = now + 1
		}
		now = n
	}
	t.Fatalf("SM did not finish within %d cycles", bound)
	return now
}

func TestSMRunsKernelToCompletion(t *testing.T) {
	s, _, disp := testSM(t, "CS", 8)
	drive(t, s, disp, 1_000_000)
	if s.Cnt.Instructions == 0 {
		t.Fatal("no instructions issued")
	}
	if s.Cnt.CTAsLaunched != 8 {
		t.Errorf("launched %d CTAs, want 8", s.Cnt.CTAsLaunched)
	}
	if s.ActiveCTAs() != 0 || s.PendingCTAs() != 0 {
		t.Errorf("residency not drained: %d active, %d pending", s.ActiveCTAs(), s.PendingCTAs())
	}
}

func TestSMDynamicInstructionCount(t *testing.T) {
	// Dynamic instruction count must equal the analytic expansion of the
	// program's loop structure, per warp, times warps.
	s, k, disp := testSM(t, "CS", 4)
	drive(t, s, disp, 1_000_000)
	perWarp := dynamicLength(k.Prog)
	want := int64(perWarp) * int64(4*k.Profile.WarpsPerCTA)
	if s.Cnt.Instructions != want {
		t.Errorf("instructions = %d, want %d (= %d/warp)", s.Cnt.Instructions, want, perWarp)
	}
}

// dynamicLength walks the program the way the timing model does (loops
// taken Trip times, cold guards not taken) and counts instructions.
func dynamicLength(p *isa.Program) int {
	remain := map[int]int{}
	n := 0
	pc := 0
	var diverge []int
	for {
		in := p.At(pc)
		n++
		switch {
		case in.Op == isa.OpEXIT:
			return n
		case in.Op == isa.OpBRA && in.IsBackward(pc):
			if _, ok := remain[pc]; !ok {
				remain[pc] = in.Trip
			}
			remain[pc]--
			if remain[pc] > 0 {
				pc = in.Target
			} else {
				delete(remain, pc)
				pc++
			}
		case in.Op == isa.OpBRA && in.IsConditional():
			if in.Diverge {
				diverge = append(diverge, in.Target)
			}
			pc++
		case in.Op == isa.OpBRA:
			if len(diverge) > 0 {
				pc = diverge[len(diverge)-1]
				diverge = diverge[:len(diverge)-1]
			} else {
				pc = in.Target
			}
		default:
			pc++
		}
	}
}

func TestSchedulingLimitsRespected(t *testing.T) {
	s, k, disp := testSM(t, "CS", 200)
	maxAct := 0
	var now int64
	for i := 0; i < 5_000_000; i++ {
		n, _ := s.Tick(now)
		if s.ActiveCTAs() > maxAct {
			maxAct = s.ActiveCTAs()
		}
		if got := s.ActiveCTAs() * k.Profile.WarpsPerCTA; got > s.Cfg.MaxWarps {
			t.Fatalf("warp slots exceeded: %d active warps", got)
		}
		if len(s.Residents()) == 0 && disp.Remaining() == 0 {
			break
		}
		if n <= now {
			n = now + 1
		}
		now = n
	}
	if maxAct > s.Cfg.MaxCTAs {
		t.Errorf("active CTAs peaked at %d > limit %d", maxAct, s.Cfg.MaxCTAs)
	}
	if maxAct < s.Cfg.MaxCTAs {
		t.Errorf("CS should reach the 32-CTA scheduling limit, peaked at %d", maxAct)
	}
}

func TestCTAStallDetection(t *testing.T) {
	s, _, disp := testSM(t, "LB", 16)
	drive(t, s, disp, 5_000_000)
	if s.Cnt.CTAStallEvents == 0 {
		t.Error("memory-bound kernel should produce full-CTA stall events")
	}
	if s.Cnt.StallLatencyN == 0 {
		t.Error("Table III first-stall sampling did not trigger")
	}
}

func TestGTOGreedyPrefersLastWarp(t *testing.T) {
	s, _, _ := testSM(t, "CS", 2)
	var now int64
	// After a few ticks the greedy pointers should be set and point at
	// warps the schedulers issued from.
	for i := 0; i < 10; i++ {
		n, _ := s.Tick(now)
		if n <= now {
			n = now + 1
		}
		now = n
	}
	found := false
	for sid, g := range s.greedy {
		if g == nil {
			continue
		}
		found = true
		if g.exited || g.schedID != sid {
			t.Errorf("scheduler %d greedy warp: exited=%v, wired to scheduler %d", sid, g.exited, g.schedID)
		}
	}
	if !found {
		t.Error("no scheduler recorded a greedy warp after issuing")
	}
}

// TestGreedyNeverPointsAtExitedWarp is the regression test for Tick
// re-pointing greedy[sid] at a warp that exited during its own issue
// (exitWarp cleared the pointer, the line after issue set it back): it was
// harmless only while issueReady kept rejecting exited warps, and it kept a
// finished CTA's warp context reachable from the scheduler.
func TestGreedyNeverPointsAtExitedWarp(t *testing.T) {
	for _, bench := range []string{"CS", "LB"} {
		s, _, disp := testSM(t, bench, 24)
		var now int64
		exits := 0
		for len(s.Residents()) > 0 || disp.Remaining() > 0 {
			if now > 5_000_000 {
				t.Fatalf("%s did not finish", bench)
			}
			before := s.warpsUsed
			n, _ := s.Tick(now)
			if s.warpsUsed < before {
				exits++
			}
			for sid, g := range s.greedy {
				if g != nil && g.Exited() {
					t.Fatalf("%s cycle %d: scheduler %d greedy warp (CTA %d warp %d) has exited",
						bench, now, sid, g.CTA.ID, g.Idx)
				}
			}
			if n <= now {
				n = now + 1
			}
			now = n
		}
		if exits == 0 {
			t.Fatalf("%s: no tick retired a warp; the test exercised nothing", bench)
		}
	}
}

func TestDeactivateReactivateRoundTrip(t *testing.T) {
	s, _, _ := testSM(t, "CS", 4)
	var now int64
	for i := 0; i < 50; i++ {
		n, _ := s.Tick(now)
		if n <= now {
			n = now + 1
		}
		now = n
	}
	c := s.Residents()[0]
	if c.State != CTAActive {
		t.Fatal("expected an active CTA")
	}
	act, pend := s.ActiveCTAs(), s.PendingCTAs()
	s.Deactivate(c, CTAPendingPCRF, now)
	if c.State != CTAPendingPCRF || s.ActiveCTAs() != act-1 || s.PendingCTAs() != pend+1 {
		t.Fatalf("Deactivate bookkeeping wrong: state=%v act=%d pend=%d", c.State, s.ActiveCTAs(), s.PendingCTAs())
	}
	if c.ReadyAt < now {
		t.Errorf("ReadyAt %d in the past (now %d)", c.ReadyAt, now)
	}
	s.Reactivate(c, now, 10)
	if c.State != CTAActive || s.ActiveCTAs() != act || s.PendingCTAs() != pend {
		t.Fatalf("Reactivate bookkeeping wrong: state=%v act=%d pend=%d", c.State, s.ActiveCTAs(), s.PendingCTAs())
	}
	if s.Cnt.CTASwitches != 1 {
		t.Errorf("switches = %d, want 1", s.Cnt.CTASwitches)
	}
}

func TestStallPCsDistinct(t *testing.T) {
	s, _, _ := testSM(t, "FD", 2)
	var now int64
	for i := 0; i < 300; i++ {
		n, _ := s.Tick(now)
		if n <= now {
			n = now + 1
		}
		now = n
	}
	var buf []int
	for _, c := range s.Residents() {
		buf = s.Meta().StallPCs(c, buf)
		pcs := buf
		seen := map[int]bool{}
		for _, pc := range pcs {
			if seen[pc] {
				t.Errorf("StallPCs returned duplicate pc %d", pc)
			}
			seen[pc] = true
		}
	}
}

func TestConfigDefaultsMatchTableI(t *testing.T) {
	c := Default()
	if c.MaxCTAs != 32 || c.MaxWarps != 64 || c.MaxThreads != 2048 ||
		c.NumSchedulers != 4 || c.RegFileBytes != 256<<10 ||
		c.SharedMemBytes != 96<<10 || c.L1Bytes != 48<<10 || c.L1Ways != 8 {
		t.Errorf("Default() does not match Table I: %+v", c)
	}
	if c.Scheduler != SchedGTO {
		t.Error("Table I specifies greedy-then-oldest scheduling")
	}
	if c.TotalWarpRegs() != 2048 {
		t.Errorf("TotalWarpRegs = %d, want 2048 (256KB / 128B)", c.TotalWarpRegs())
	}
}

// The issue table carries latencies resolved from a Config; binding it to
// an SM configured differently would silently simulate the wrong machine.
func TestBindKernelRejectsForeignLatencies(t *testing.T) {
	_, k, _ := testSM(t, "CS", 4)
	cfg := Default()
	cfg.SFULat++
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	fresh := New(1, Default(), hier, &sliceDisp{total: 4}, &nullPolicy{})
	defer func() {
		if recover() == nil {
			t.Error("BindKernel accepted a table decoded for another SFU latency")
		}
	}()
	fresh.BindKernel(NewProgInfo(k, cfg), 0)
}

func TestTimingBarrierSynchronizes(t *testing.T) {
	// A two-warp CTA where warp arrival at the barrier is skewed by a
	// long load: no warp may issue past the barrier before both arrive.
	b := isa.NewBuilder("barrier-timing")
	b.Ldg(1, 0, isa.MemDesc{Pattern: isa.PatCoalesced, Footprint: 64 << 20})
	b.FAdd(2, 1, 1) // depends on the load: arrival skew source
	b.Bar()
	b.IAdd(3, 2, 2)
	b.Exit()
	prog := b.MustBuild(8)
	k := &kernels.Kernel{
		Profile:  kernels.Profile{Abbrev: "BART", WarpsPerCTA: 2, Regs: 8},
		Prog:     prog,
		GridCTAs: 4,
	}
	var err error
	k.Live, err = liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &sliceDisp{total: 4}
	s := New(0, Default(), hier, disp, &nullPolicy{})
	s.BindKernel(NewProgInfo(k, s.Cfg), 0)
	drive(t, s, disp, 1_000_000)
	// 4 CTAs x 2 warps x 5 instructions each.
	if want := int64(4 * 2 * 5); s.Cnt.Instructions != want {
		t.Errorf("instructions = %d, want %d", s.Cnt.Instructions, want)
	}
}

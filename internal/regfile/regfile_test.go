package regfile

import (
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

func newRig(t *testing.T, bench string, grid int, pol sm.Policy) (*sm.SM, *rigDisp) {
	t.Helper()
	prof, err := kernels.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.MustBuild(prof, grid)
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &rigDisp{total: grid}
	s := sm.New(0, sm.Default(), hier, disp, pol)
	s.BindKernel(sm.NewProgInfo(k, s.Cfg), 0)
	return s, disp
}

type rigDisp struct{ next, total int }

func (d *rigDisp) NextCTAID() int {
	if d.next >= d.total {
		return -1
	}
	d.next++
	return d.next - 1
}
func (d *rigDisp) Remaining() int { return d.total - d.next }

func runRig(t *testing.T, s *sm.SM, disp *rigDisp, bound int64) int64 {
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
	t.Fatalf("did not finish within %d cycles", bound)
	return 0
}

func TestBaselineRespectsRegisterFile(t *testing.T) {
	// LB: 54 regs x 4 warps = 216 warp-registers per CTA; 2048/216 = 9.
	pol := NewBaseline(sm.Default())
	s, _ := newRig(t, "LB", 64, pol)
	if got := s.ActiveCTAs(); got != 9 {
		t.Errorf("baseline activated %d LB CTAs, want 9 (register-file limit)", got)
	}
	if free := pol.Regs().Free(); free != 2048-9*216 {
		t.Errorf("RegsFree = %d, want %d", free, 2048-9*216)
	}
}

func TestBaselineRegisterAccountingBalances(t *testing.T) {
	pol := NewBaseline(sm.Default())
	s, disp := newRig(t, "SG", 24, pol)
	runRig(t, s, disp, 10_000_000)
	if free := pol.Regs().Free(); free != 2048 {
		t.Errorf("registers leaked: %d free after drain, want 2048", free)
	}
}

func TestVirtualThreadExceedsBaselineResidency(t *testing.T) {
	// CS is Type-S: VT should pack more resident CTAs than the baseline's
	// 32 scheduling limit by parking stalled ones.
	polB := NewBaseline(sm.Default())
	sB, dB := newRig(t, "CS", 96, polB)
	polV := NewVirtualThread(sm.Default(), mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()))
	sV, dV := newRig(t, "CS", 96, polV)

	maxResB, maxResV := 0, 0
	var nb, nv int64
	for i := 0; i < 10_000_000; i++ {
		n1, _ := sB.Tick(nb)
		n2, _ := sV.Tick(nv)
		if r := sB.ResidentCTAs(); r > maxResB {
			maxResB = r
		}
		if r := sV.ResidentCTAs(); r > maxResV {
			maxResV = r
		}
		doneB := len(sB.Residents()) == 0 && dB.Remaining() == 0
		doneV := len(sV.Residents()) == 0 && dV.Remaining() == 0
		if doneB && doneV {
			break
		}
		if n1 <= nb {
			n1 = nb + 1
		}
		if n2 <= nv {
			n2 = nv + 1
		}
		if !doneB {
			nb = n1
		}
		if !doneV {
			nv = n2
		}
	}
	if maxResV <= maxResB {
		t.Errorf("VT peak residency %d should exceed baseline %d", maxResV, maxResB)
	}
	if maxResB > 32 {
		t.Errorf("baseline residency %d exceeds the 32-CTA scheduling limit", maxResB)
	}
}

func TestVirtualThreadNoGainForTypeR(t *testing.T) {
	// LB fills the register file at 9 CTAs; VT has no headroom to park
	// extra CTAs, so residency must match the baseline.
	pol := NewVirtualThread(sm.Default(), mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()))
	s, _ := newRig(t, "LB", 64, pol)
	var now int64
	maxRes := 0
	for i := 0; i < 30_000; i++ {
		n, _ := s.Tick(now)
		if r := s.ResidentCTAs(); r > maxRes {
			maxRes = r
		}
		if n <= now {
			n = now + 1
		}
		now = n
	}
	if maxRes != 9 {
		t.Errorf("VT residency for LB = %d, want 9 (no register headroom)", maxRes)
	}
}

func TestRegDRAMCompletesWithContextTraffic(t *testing.T) {
	prof, _ := kernels.ProfileByName("FD")
	k := kernels.MustBuild(prof, 64)
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &rigDisp{total: 64}
	pol := NewRegDRAM(sm.Default(), hier, 4)
	s := sm.New(0, sm.Default(), hier, disp, pol)
	s.BindKernel(sm.NewProgInfo(k, s.Cfg), 0)
	runRig(t, s, disp, 30_000_000)
	// With an off-chip pool the policy may or may not spill depending on
	// dynamics, but accounting must balance and any context traffic must
	// be register-sized multiples.
	if ctx := hier.DRAM.Bytes(mem.TrafficContext); ctx%int64(k.Profile.WarpsPerCTA*k.Profile.Regs*128) != 0 {
		t.Errorf("context traffic %d is not a whole number of CTA contexts", ctx)
	}
}

// vtEquivalent runs the 48-CTA rig over BI, LI, LB, NW and KM under Virtual
// Thread and under the policy mk builds, which embeds VT's switch and is
// configured so that what it adds never acts: both must finish every kernel
// on the same cycle. (The policies are handed a hierarchy of their own, not
// the rig SM's, so the channel they watch stays idle and VT's launch guard —
// which Reg+DRAM's in-RF step lacks, see TestLaunchGuardIsVTsNotRegDRAMs —
// never fires.)
func vtEquivalent(t *testing.T, mk func(sm.Config, *mem.Hierarchy) sm.Policy) {
	t.Helper()
	for _, bench := range []string{"BI", "LI", "LB", "NW", "KM"} {
		run := func(pol sm.Policy) int64 {
			s, disp := newRig(t, bench, 48, pol)
			return runRig(t, s, disp, 30_000_000)
		}
		hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
		pol := mk(sm.Default(), hier)
		tVT, tPol := run(NewVirtualThread(sm.Default(), hier)), run(pol)
		if tVT != tPol {
			t.Errorf("%s: %s finished at %d, VT at %d — should be identical", bench, pol.Name(), tPol, tVT)
		}
		t.Logf("%s: %d cycles", bench, tVT)
	}
}

func TestRegDRAMCapZeroEqualsVT(t *testing.T) {
	// With no off-chip pool, Reg+DRAM degenerates to Virtual Thread.
	vtEquivalent(t, func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy { return NewRegDRAM(cfg, hier, 0) })
}

func TestRegMutexZeroSRPEqualsVT(t *testing.T) {
	// With no shared pool the BRS is the whole allocation and no warp ever
	// needs a grant: VT+RegMutex degenerates to Virtual Thread.
	vtEquivalent(t, func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy { return NewRegMutex(cfg, hier, 0) })
}

// TestLaunchGuardIsVTsNotRegDRAMs pins the one behavioural difference the
// shared switch carries as a parameter: with no ready pending CTA, room in
// the register file and grid CTAs left, a stall under Virtual Thread or
// VT+RegMutex launches a replacement only while the off-chip channel is not
// launchSaturated; Reg+DRAM's in-RF step launches regardless. No golden cell
// separates the two, so this is the only place either direction would show.
func TestLaunchGuardIsVTsNotRegDRAMs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func(sm.Config, *mem.Hierarchy) sm.Policy
		guarded bool
	}{
		{"VT", func(c sm.Config, h *mem.Hierarchy) sm.Policy { return NewVirtualThread(c, h) }, true},
		{"VT+RegMutex", func(c sm.Config, h *mem.Hierarchy) sm.Policy { return NewRegMutex(c, h, 0.25) }, true},
		{"Reg+DRAM", func(c sm.Config, h *mem.Hierarchy) sm.Policy { return NewRegDRAM(c, h, 4) }, false},
	} {
		for _, backlogged := range []bool{false, true} {
			hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
			pol := tc.mk(sm.Default(), hier)
			// CS is Type-S: the scheduling limit fills long before the
			// register file, so a parked CTA's replacement fits.
			prof, _ := kernels.ProfileByName("CS")
			disp := &rigDisp{total: 96}
			s := sm.New(0, sm.Default(), hier, disp, pol)
			s.BindKernel(sm.NewProgInfo(kernels.MustBuild(prof, 96), s.Cfg), 0)
			if backlogged {
				hier.DRAM.Access(0, 700*313, mem.TrafficDemand) // 700 cycles > 20 x SwitchDrainLat
			}
			if launchSaturated(hier, &s.Cfg, 0) != backlogged {
				t.Fatalf("%s: channel backlog not as staged", tc.name)
			}
			victim, before := s.Residents()[0], len(s.Residents())
			pol.OnCTAStalled(s, victim, 0)
			switched := victim.State == sm.CTAPendingRF && len(s.Residents()) == before+1
			if want := !(backlogged && tc.guarded); switched != want {
				t.Errorf("%s, backlogged=%v: stalled CTA switched for a fresh launch = %v, want %v",
					tc.name, backlogged, switched, want)
			}
		}
	}
}

func TestRegMutexPacksMoreCTAs(t *testing.T) {
	// BRS-only allocation admits more CTAs than the baseline's full
	// static allocation for register-limited kernels.
	polB := NewBaseline(sm.Default())
	sB, _ := newRig(t, "LB", 64, polB)
	polM := NewRegMutex(sm.Default(), mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()), 0.25)
	sM, _ := newRig(t, "LB", 64, polM)
	if sM.ActiveCTAs() <= sB.ActiveCTAs() {
		t.Errorf("RegMutex activated %d CTAs, baseline %d — BRS should admit more",
			sM.ActiveCTAs(), sB.ActiveCTAs())
	}
}

func TestRegMutexSRPAccountingBalances(t *testing.T) {
	pol := NewRegMutex(sm.Default(), mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()), 0.25)
	s, disp := newRig(t, "SY2", 48, pol)
	runRig(t, s, disp, 50_000_000)
	if used := pol.SRPInUse(); used != 0 {
		t.Errorf("SRP leaked: %d warp-registers still granted after drain", used)
	}
}

func TestRegMutexCompletesUnderHeavyContention(t *testing.T) {
	// A large SRP fraction shrinks the BRS below per-warp demand; the
	// emergency overdraft must still guarantee completion.
	pol := NewRegMutex(sm.Default(), mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()), 0.35)
	s, disp := newRig(t, "SY2", 96, pol)
	runRig(t, s, disp, 120_000_000)
	if pol.DeniedIssues == 0 {
		t.Error("expected SRP contention denials at SRP fraction 0.35")
	}
	if s.Cnt.DepletionCycles == 0 {
		t.Error("expected depletion stall cycles under contention")
	}
}

func TestRegMutexSRPFracClamped(t *testing.T) {
	if p := NewRegMutex(sm.Default(), nil, -1); p.SRPFrac != 0 {
		t.Errorf("negative SRP fraction should clamp to 0, got %v", p.SRPFrac)
	}
	if p := NewRegMutex(sm.Default(), nil, 2); p.SRPFrac != 0.9 {
		t.Errorf("huge SRP fraction should clamp to 0.9, got %v", p.SRPFrac)
	}
}

// TestRegDRAMDMAAllowedSizeAware is the regression test for the size-blind
// slack check: admission must account for the transfer's own service time,
// not just the pre-existing channel backlog, so a full CTA context is
// denied under backlog a small transfer still clears.
func TestRegDRAMDMAAllowedSizeAware(t *testing.T) {
	cfg := sm.Default() // SwitchDrainLat 30 → slack threshold 300 cycles
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	r := NewRegDRAM(cfg, hier, 4)

	const (
		small = 256      // sub-cycle service at 313 B/cycle
		full  = 27 << 10 // a full CTA context: ~88 cycles of service
	)

	// Empty channel: both sizes admitted.
	if !r.dmaAllowed(small, 0) || !r.dmaAllowed(full, 0) {
		t.Fatal("empty channel must admit both transfer sizes")
	}

	// 250 cycles of backlog: 250 + 0.8 clears the 300-cycle threshold,
	// 250 + 88 does not. The old size-blind check admitted both.
	hier.DRAM.Access(0, 250*313, mem.TrafficDemand)
	if !r.dmaAllowed(small, 0) {
		t.Error("small transfer denied under moderate backlog")
	}
	if r.dmaAllowed(full, 0) {
		t.Error("full context admitted although backlog + its own service exceeds the threshold")
	}

	// Saturated channel (~350 cycles of backlog): everything is denied.
	hier.DRAM.Access(0, 100*313, mem.TrafficDemand)
	if r.dmaAllowed(small, 0) {
		t.Error("small transfer admitted on a saturated channel")
	}

	// The pacing window denies regardless of channel state; once it and
	// the backlog have both passed, transfers flow again.
	r.nextDMA = 1000
	if r.dmaAllowed(small, 999) {
		t.Error("transfer admitted inside the pacing window")
	}
	if !r.dmaAllowed(full, 1000) {
		t.Error("transfer denied after backlog and pacing window elapsed")
	}
}

// BenchmarkRegMutexAllowIssue is the per-issue-attempt cost of the SRP gate
// over LI's resident warps (Type-R: up to 24 live registers above the BRS,
// enough for 58 warps to exhaust a 512-entry pool): one attempt in four
// follows a PC move and so acquires or releases, the rest find their grant
// in place (hold), and attempts that find the pool exhausted are denied. The
// clock stands still so the emergency overdraft never fires.
func BenchmarkRegMutexAllowIssue(b *testing.B) {
	prof, err := kernels.ProfileByName("LI")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sm.Default()
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	pol := NewRegMutex(cfg, hier, 0.25)
	s := sm.New(0, cfg, hier, &rigDisp{total: 64}, pol)
	s.BindKernel(sm.NewProgInfo(kernels.MustBuild(prof, 64), cfg), 0)
	var warps []*sm.Warp
	for _, c := range s.Residents() {
		warps = append(warps, c.Warps...)
	}
	n := s.Meta().Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := warps[i%len(warps)]
		if i%4 == 0 {
			w.PC = (w.PC + 1 + i%5) % n
		}
		pol.AllowIssue(s, w, 0)
	}
	b.ReportMetric(float64(pol.DeniedIssues)/float64(b.N), "denied/op")
}

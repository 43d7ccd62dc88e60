package gpu

import (
	"errors"
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

func TestScalePreservesPerSMResources(t *testing.T) {
	base := Default()
	quarter := base.Scale(4)
	if quarter.NumSMs != 4 {
		t.Fatalf("NumSMs = %d, want 4", quarter.NumSMs)
	}
	// Per-SM bandwidth share and L2 share must be unchanged.
	if got, want := quarter.DRAMBytesPerCycle/4, base.DRAMBytesPerCycle/16; got != want {
		t.Errorf("per-SM bandwidth %v, want %v", got, want)
	}
	if got, want := quarter.L2Bytes*4, base.L2Bytes; got != want {
		t.Errorf("scaled L2 %d x4 = %d, want %d", quarter.L2Bytes, got, want)
	}
	// SM-local resources never scale.
	if quarter.SM.RegFileBytes != base.SM.RegFileBytes {
		t.Error("register file must stay per-SM constant")
	}
}

func TestScaleKeepsL2Wellformed(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 32, 128} {
		cfg := Default().Scale(n)
		if _, err := mem.NewCache(cfg.L2Bytes, cfg.L2Ways); err != nil {
			t.Errorf("Scale(%d) produced invalid L2 geometry: %v", n, err)
		}
	}
}

func TestRunCollectsHierarchyMetrics(t *testing.T) {
	cfg := Default().Scale(2)
	p, _ := kernels.ProfileByName("LB")
	k := kernels.MustBuild(p, 16)
	g := New(cfg, Baseline())
	m, err := g.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if m.L1Accesses == 0 || m.L2Accesses == 0 || m.DRAMDemandBytes == 0 {
		t.Errorf("memory metrics missing: L1=%d L2=%d dram=%d", m.L1Accesses, m.L2Accesses, m.DRAMDemandBytes)
	}
	if m.L1Misses > m.L1Accesses || m.L2Misses > m.L2Accesses {
		t.Error("misses exceed accesses")
	}
	if m.RFReads == 0 || m.RFWrites == 0 {
		t.Error("register file event counters missing")
	}
	if m.AvgResidentCTAs <= 0 || m.AvgActiveThreads <= 0 {
		t.Error("TLP time-averages missing")
	}
}

func TestCycleBudgetGuard(t *testing.T) {
	cfg := Default().Scale(2)
	cfg.MaxCycles = 100 // absurdly small
	p, _ := kernels.ProfileByName("CS")
	k := kernels.MustBuild(p, 64)
	g := New(cfg, Baseline())
	_, err := g.Run(k)
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("expected ErrCycleBudget, got %v", err)
	}
}

// TestCycleBudgetBelowScoreboardWidth: a library caller's budget past 2^31
// is clamped, so a load whose value arrives after cycle 2^31 — stored
// saturated in the int32 scoreboard — ends the run at the guard instead of
// being read as due at 2^31-1.
func TestCycleBudgetBelowScoreboardWidth(t *testing.T) {
	cfg := Default().Scale(1)
	cfg.DRAMLatency = 3_000_000_000
	cfg.MaxCycles = 1 << 40
	p, _ := kernels.ProfileByName("BF")
	_, err := New(cfg, Baseline()).Run(kernels.MustBuild(p, 1))
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("a 3e9-cycle DRAM latency under a 2^40 budget: %v, want ErrCycleBudget", err)
	}
}

// stuckPolicy deliberately never launches anything.
type stuckPolicy struct{}

func (stuckPolicy) Name() string                                 { return "stuck" }
func (stuckPolicy) KernelStart(s *sm.SM, now int64)              {}
func (stuckPolicy) FillSlots(s *sm.SM, now int64)                {}
func (stuckPolicy) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64)  {}
func (stuckPolicy) OnCTAReady(s *sm.SM, c *sm.CTA, now int64)    {}
func (stuckPolicy) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {}
func (stuckPolicy) BlockedOnRegisters() bool                     { return false }

func TestDeadlockDetection(t *testing.T) {
	// A policy that never launches leaves the grid undrained with no
	// events: the run loop must fail fast instead of spinning.
	cfg := Default().Scale(2)
	p, _ := kernels.ProfileByName("CS")
	k := kernels.MustBuild(p, 8)
	g := New(cfg, func(c sm.Config, h *mem.Hierarchy) sm.Policy { return stuckPolicy{} })
	_, err := g.Run(k)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
}

func TestDispatcherDrainsExactly(t *testing.T) {
	d := &dispatcher{total: 3}
	ids := []int{d.NextCTAID(), d.NextCTAID(), d.NextCTAID()}
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Errorf("ids = %v, want [0 1 2]", ids)
	}
	if d.NextCTAID() != -1 || d.Remaining() != 0 {
		t.Error("drained dispatcher must return -1 / 0 remaining")
	}
}

func TestPolicyFactoriesProduceDistinctInstances(t *testing.T) {
	cfg := Default().Scale(2)
	g := New(cfg, FineRegDefault())
	if g.SMs[0].Pol == g.SMs[1].Pol {
		t.Error("each SM must get its own policy instance")
	}
}

func TestFineRegSplitFactoryValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched ACRF/PCRF split should panic at construction")
		}
	}()
	New(Default().Scale(1), FineReg(64<<10, 64<<10)) // 128KB != 256KB file
}

func TestFineRegFullAblation(t *testing.T) {
	// The CompactLive=false ablation stores full register sets in the
	// PCRF: far fewer pending CTAs fit, so resident CTAs must not exceed
	// the live-compacted configuration.
	cfg := Default().Scale(2)
	p, _ := kernels.ProfileByName("SY2")
	run := func(pf PolicyFactory) float64 {
		k := kernels.MustBuild(p, 96)
		g := New(cfg, pf)
		m, err := g.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		return m.AvgResidentCTAs
	}
	compact := run(FineRegDefault())
	full := run(FineRegFull(128<<10, 128<<10))
	if full > compact {
		t.Errorf("full-set PCRF residency %.1f should not exceed live-compacted %.1f", full, compact)
	}
}

func mustKernel(t *testing.T, name string, grid int) *kernels.Kernel {
	t.Helper()
	p, err := kernels.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return kernels.MustBuild(p, grid)
}

// TestKernelDecodedOncePerBind: the issue table is decoded once per
// process per latency triple — held by the program table's entry, and
// shared read-only by the sixteen SMs of one run, by a later run on another
// machine, and by a run of a profile that differs only in its name.
// Different kernels hold different tables, and so do machines that differ
// in a latency.
func TestKernelDecodedOncePerBind(t *testing.T) {
	g := New(Default(), Baseline())
	if len(g.SMs) != 16 {
		t.Fatalf("Table I machine has %d SMs, want 16", len(g.SMs))
	}
	if _, err := g.Run(mustKernel(t, "CS", 64)); err != nil {
		t.Fatal(err)
	}
	for _, s := range g.SMs {
		if s.Meta() == nil || s.Meta() != g.SMs[0].Meta() {
			t.Fatalf("SM%d holds its own issue table", s.ID)
		}
	}
	first := g.SMs[0].Meta()
	renamed, _ := kernels.ProfileByName("CS")
	renamed.Name = "renamed"
	g = New(Default().Scale(2), Baseline())
	if _, err := g.Run(kernels.MustBuild(renamed, 8)); err != nil {
		t.Fatal(err)
	}
	if g.SMs[0].Meta() != first || g.SMs[1].Meta() != first {
		t.Error("a later run of the same program decoded it again")
	}
	slow := Default().Scale(2)
	slow.SM.ALULat++
	g = New(slow, Baseline())
	if _, err := g.Run(mustKernel(t, "CS", 8)); err != nil {
		t.Fatal(err)
	}
	if g.SMs[0].Meta() == first {
		t.Error("machines with different ALU latencies share an issue table")
	}

	g = New(Default().Scale(2), Baseline())
	if _, err := g.Run(mustKernel(t, "LB", 8)); err != nil {
		t.Fatal(err)
	}
	if g.SMs[0].Meta() == first {
		t.Error("different kernels share an issue table")
	}
}

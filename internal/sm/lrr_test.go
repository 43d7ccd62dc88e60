package sm

import (
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/mem"
	"finereg/internal/trace"
)

// issueLog records the per-warp issue order through the trace sink.
type issueLog struct {
	order    []int
	ctaOrder []int
	counts   map[int]int
}

func (l *issueLog) Event(e trace.Event) {
	if e.Kind == trace.WarpIssue {
		l.order = append(l.order, e.Warp)
		l.ctaOrder = append(l.ctaOrder, e.CTA)
		l.counts[e.Warp]++
	}
}

// TestLRRRotatesFairly is the regression test for the loose-round-robin
// starvation bug: with every warp ready every cycle (independent ALU
// instructions, no memory), the old scheduler re-picked the lowest-index
// ready warp, so warp 0 ran to completion before warp 1 issued at all. A
// true round-robin must rotate: every warp appears early in the issue
// order, and no warp ever builds up more than a rotation's worth of lead.
func TestLRRRotatesFairly(t *testing.T) {
	const warps = 8
	b := isa.NewBuilder("lrr-fair")
	b.MovI(1, 7)
	for i := 0; i < 20; i++ {
		// Independent: all read r1, distinct destinations — no scoreboard
		// stalls, so every non-exited warp is ready every cycle.
		b.FAdd(isa.Reg(2+i), 1, 1)
	}
	b.Exit()
	prog := b.MustBuild(24)
	k := &kernels.Kernel{
		Profile:  kernels.Profile{Abbrev: "LRRF", WarpsPerCTA: warps, Regs: 24},
		Prog:     prog,
		GridCTAs: 1,
	}
	var err error
	k.Live, err = liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default()
	cfg.NumSchedulers = 1 // all warps contend for one issue slot
	cfg.Scheduler = SchedLRR
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &sliceDisp{total: 1}
	s := New(0, cfg, hier, disp, &nullPolicy{})
	log := &issueLog{counts: map[int]int{}}
	s.SetTrace(log)
	s.BindKernel(k)
	drive(t, s, disp, 1_000_000)

	if got := len(log.order); got != warps*22 {
		t.Fatalf("issued %d instructions, want %d", got, warps*22)
	}

	// Rotation: the first two rotations' worth of issues must include
	// every warp (the old scheduler issued warp 0 sixteen times here).
	early := map[int]bool{}
	for _, w := range log.order[:2*warps] {
		early[w] = true
	}
	if len(early) != warps {
		t.Errorf("only %d/%d warps issued in the first %d slots: %v",
			len(early), warps, 2*warps, log.order[:2*warps])
	}

	// Bounded lead: at no point during the run may the most-served warp be
	// more than a full rotation ahead of the least-served non-exited warp.
	running := map[int]int{}
	for i := 0; i < warps; i++ {
		running[i] = 0
	}
	for _, w := range log.order {
		running[w]++
		if running[w] == 22 {
			delete(running, w) // exited; no longer owed slots
			continue
		}
		min, max := 1<<30, 0
		for _, c := range running {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > warps {
			t.Fatalf("warp lead %d exceeds a rotation (counts %v)", max-min, running)
		}
	}
}

// TestLRRSurvivesMidRotationEviction is the regression test for the
// rotation-anchor bug: the LRR start position was derived from the greedy
// *pointer*, which unwiring nils when the last-issued warp's CTA is
// evicted — so every mid-rotation CTA switch reset the rotation to slot 0
// and re-served the low-index warps. The anchor is now the departed warp's
// wiring sequence: after evicting the CTA that holds the anchor warp, the
// next issue must come from the first ready warp wired *after* it, not
// from slot 0.
func TestLRRSurvivesMidRotationEviction(t *testing.T) {
	b := isa.NewBuilder("lrr-evict")
	b.MovI(1, 7)
	for i := 0; i < 30; i++ {
		b.FAdd(isa.Reg(2+i%8), 1, 1)
	}
	b.Exit()
	prog := b.MustBuild(12)
	k := &kernels.Kernel{
		Profile:  kernels.Profile{Abbrev: "LRRE", WarpsPerCTA: 2, Regs: 12},
		Prog:     prog,
		GridCTAs: 3,
	}
	var err error
	k.Live, err = liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default()
	cfg.NumSchedulers = 1
	cfg.Scheduler = SchedLRR
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &sliceDisp{total: 3}
	s := New(0, cfg, hier, disp, &nullPolicy{})
	log := &issueLog{counts: map[int]int{}}
	s.SetTrace(log)
	s.BindKernel(k)

	// Wiring order on the single scheduler: c0w0 c0w1 c1w0 c1w1 c2w0 c2w1.
	// Four ticks of all-ready ALU work issue c0w0, c0w1, c1w0, c1w1 — the
	// rotation anchor now sits on CTA 1's second warp.
	var now int64
	for i := 0; i < 4; i++ {
		s.Tick(now)
		now++
	}
	if got := len(log.order); got != 4 {
		t.Fatalf("issued %d instructions in 4 ticks, want 4 (one scheduler)", got)
	}
	if log.ctaOrder[3] != 1 || log.order[3] != 1 {
		t.Fatalf("anchor warp is CTA%d w%d, want CTA1 w1 (wiring-order rotation)", log.ctaOrder[3], log.order[3])
	}

	// Evict CTA 1 mid-rotation: the anchor warp leaves the scheduler.
	var c1 *CTA
	for _, c := range s.Residents() {
		if c.ID == 1 {
			c1 = c
		}
	}
	s.Deactivate(c1, CTAPendingRF, now)

	// The next issue must continue the rotation at CTA 2 (wired after the
	// departed anchor), not restart at CTA 0's slot-0 warp.
	s.Tick(now)
	if got := len(log.order); got != 5 {
		t.Fatalf("issued %d instructions after eviction tick, want 5", got)
	}
	if log.ctaOrder[4] != 2 || log.order[4] != 0 {
		t.Errorf("post-eviction issue went to CTA%d w%d, want CTA2 w0 (rotation must survive the eviction)",
			log.ctaOrder[4], log.order[4])
	}
}

// TestGTOStaysGreedy pins the other scheduler: GTO must keep issuing from
// the same warp while it stays ready, rather than rotating.
func TestGTOStaysGreedy(t *testing.T) {
	const warps = 4
	b := isa.NewBuilder("gto-greedy")
	b.MovI(1, 7)
	for i := 0; i < 12; i++ {
		b.FAdd(isa.Reg(2+i), 1, 1)
	}
	b.Exit()
	prog := b.MustBuild(16)
	k := &kernels.Kernel{
		Profile:  kernels.Profile{Abbrev: "GTOG", WarpsPerCTA: warps, Regs: 16},
		Prog:     prog,
		GridCTAs: 1,
	}
	var err error
	k.Live, err = liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.NumSchedulers = 1
	cfg.Scheduler = SchedGTO
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	disp := &sliceDisp{total: 1}
	s := New(0, cfg, hier, disp, &nullPolicy{})
	log := &issueLog{counts: map[int]int{}}
	s.SetTrace(log)
	s.BindKernel(k)
	drive(t, s, disp, 1_000_000)

	// Greedy: consecutive issues from the same warp dominate the stream.
	same := 0
	for i := 1; i < len(log.order); i++ {
		if log.order[i] == log.order[i-1] {
			same++
		}
	}
	if frac := float64(same) / float64(len(log.order)-1); frac < 0.5 {
		t.Errorf("GTO issue stream only %.0f%% greedy-consecutive: %v", 100*frac, log.order)
	}
}

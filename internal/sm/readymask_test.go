package sm

import (
	"fmt"
	"math/rand"
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/mem"
	"finereg/internal/trace"
)

// refPartition is the ready partition the mask replaced, kept as the
// reference: per scheduler, the awake warps in a slice sorted by wiring
// sequence, maintained by sorted insertion and linear removal at the sites
// that now flip a bit.
type refPartition [][]*Warp

func (r refPartition) add(w *Warp) {
	rs := r[w.schedID]
	i := len(rs)
	for i > 0 && rs[i-1].schedSeq > w.schedSeq {
		i--
	}
	rs = append(rs, nil)
	copy(rs[i+1:], rs[i:])
	rs[i] = w
	r[w.schedID] = rs
}

func (r refPartition) remove(w *Warp) {
	rs := r[w.schedID]
	for i, x := range rs {
		if x == w {
			r[w.schedID] = append(rs[:i], rs[i+1:]...)
			return
		}
	}
}

// maskRig runs one SM under a policy that makes random issue decisions and
// checks, call by call, that the mask scan visits the warps the reference
// scan — a snapshot of the reference partition, walked in order with the old
// staleness guard — would have visited, and picks the warp it would have
// picked. The rig is the SM's policy (every issueReady reaches AllowIssue,
// which is where a visit is observed and decided) and its trace sink (the
// wake/block/spawn/drop/exit events sit beside the sites that maintained
// the old partition, so they maintain the reference).
type maskRig struct {
	t   *testing.T
	rnd *rand.Rand
	s   *SM
	ref refPartition

	// The pick being observed: scheduler sid at cycle at.
	sid       int
	at        int64
	open      bool
	greedy    *Warp   // the greedy try this pick started with, nil if none
	scanning  bool    // the snapshot has been taken
	order     []*Warp // the reference scan order (rotated for LRR)
	cursor    int
	cands     []*Warp // visited, allowed and not blocked since
	evictions int     // CTAs evicted while a scan was in progress
	wirings   int     // warps wired awake while a scan was in progress
	picks     int
	maxList   int
}

func (m *maskRig) warp(cta, idx int) *Warp {
	for _, c := range m.s.residents {
		if c.ID == cta {
			return c.Warps[idx]
		}
	}
	m.t.Fatalf("event for warp %d of non-resident CTA %d", idx, cta)
	return nil
}

func stale(w *Warp, now int64) bool {
	return w.asleep || w.exited || w.wakeAt > now || w.CTA == nil || w.CTA.State != CTAActive
}

// ---- sink: maintain the reference partition ----

func (m *maskRig) Event(e trace.Event) {
	switch e.Kind {
	case trace.WarpSpawn:
		if e.Reason == trace.ReasonIdle { // wired awake
			m.ref.add(m.warp(e.CTA, e.Warp))
			if m.open {
				m.wirings++
			}
		}
	case trace.WarpWake:
		m.ref.add(m.warp(e.CTA, e.Warp))
	case trace.WarpDrop, trace.WarpExit:
		m.ref.remove(m.warp(e.CTA, e.Warp))
	case trace.WarpBlock:
		w := m.warp(e.CTA, e.Warp)
		m.ref.remove(w)
		for i, x := range m.cands {
			if x == w { // allowed by the gate, then blocked by the scoreboard
				m.cands = append(m.cands[:i], m.cands[i+1:]...)
			}
		}
	case trace.WarpIssue:
		// An issue closes the observed pick: the issued warp must be the one
		// the reference scan picks.
		w := m.warp(e.CTA, e.Warp)
		if !m.open || w.schedID != m.sid || e.Cycle != m.at {
			m.t.Fatalf("cycle %d: CTA %d warp %d issued from scheduler %d with no pick observed", e.Cycle, e.CTA, e.Warp, w.schedID)
		}
		m.finish(w)
	}
}

// finish checks the pick that just ended (got nil: nothing issued).
func (m *maskRig) finish(got *Warp) {
	if !m.open {
		return
	}
	m.open = false
	var want *Warp
	lrr := m.s.Cfg.Scheduler == SchedLRR
	if len(m.cands) > 0 {
		// LRR stops at its first candidate, and a candidate from before the
		// scan is the greedy warp, which wins outright.
		want = m.cands[0]
		if m.scanning && !lrr {
			for _, w := range m.cands {
				if w.Age < want.Age {
					want = w
				}
			}
		}
	}
	if got != want {
		m.t.Fatalf("cycle %d scheduler %d: picked %s, reference picks %s", m.at, m.sid, name(got), name(want))
	}
	if want != nil {
		m.picks++
	}
	if lrr && want != nil {
		return // the rotation stopped at the pick
	}
	if m.scanning {
		for _, w := range m.order[m.cursor:] {
			if !stale(w, m.at) {
				m.t.Fatalf("cycle %d scheduler %d: scan never visited ready %s", m.at, m.sid, name(w))
			}
		}
	}
}

func name(w *Warp) string {
	if w == nil {
		return "nothing"
	}
	return fmt.Sprintf("warp %d (seq %d, age %d)", w.Idx, w.schedSeq, w.Age)
}

// ---- policy ----

func (m *maskRig) Name() string                   { return "mask-rig" }
func (m *maskRig) KernelStart(*SM, int64)         {}
func (m *maskRig) BlockedOnRegisters() bool       { return false }
func (m *maskRig) OnCTAFinished(*SM, *CTA, int64) {}
func (m *maskRig) readyPending(s *SM, now int64) *CTA {
	for _, c := range s.Residents() {
		if c.State == CTAPendingRF && c.ReadyAt <= now {
			return c
		}
	}
	return nil
}

func (m *maskRig) FillSlots(s *SM, now int64) {
	for s.CanActivateOne(false) {
		if c := m.readyPending(s, now); c != nil {
			s.Reactivate(c, now, int64(m.rnd.Intn(2)*3))
		} else if !s.CanActivateOne(true) || s.LaunchNew(now, 0) == nil {
			return
		}
	}
}

// OnCTAStalled runs under a scan whenever the long block that completed the
// stall came from a visit: the eviction unwires warps the scan has yet to
// reach, and the replacement is wired — sometimes awake at once — behind it.
func (m *maskRig) OnCTAStalled(s *SM, c *CTA, now int64) {
	if m.rnd.Intn(4) == 0 {
		return
	}
	s.Deactivate(c, CTAPendingRF, now)
	if m.open {
		m.evictions++
	}
	m.FillSlots(s, now)
}

func (m *maskRig) OnCTAReady(s *SM, c *CTA, now int64) {
	if s.CanActivateOne(false) {
		s.Reactivate(c, now, int64(m.rnd.Intn(2)*3))
	}
}

// AllowIssue observes one visit of a pick and decides it at random.
func (m *maskRig) AllowIssue(s *SM, w *Warp, now int64) bool {
	sid := w.schedID
	lrr := s.Cfg.Scheduler == SchedLRR
	if !m.open || sid != m.sid || now != m.at {
		m.finish(nil) // the previous pick, if still open, issued nothing
		m.open, m.sid, m.at = true, sid, now
		m.scanning, m.cands, m.greedy = false, m.cands[:0], nil
		if g := s.greedy[sid]; !lrr && g != nil && !stale(g, now) {
			m.greedy = g
			if w != g {
				m.t.Fatalf("cycle %d scheduler %d: visited %s before the greedy %s", now, sid, name(w), name(g))
			}
			return m.decide(s, w, now)
		}
	}
	if len(m.cands) > 0 && (lrr || !m.scanning) {
		m.t.Fatalf("cycle %d scheduler %d: visit of %s after the pick was settled", now, sid, name(w))
	}
	if !m.scanning {
		// The reference takes its snapshot here: after the greedy try, before
		// the first scan visit.
		m.scanning, m.cursor = true, 0
		snap := m.ref[sid]
		m.order = append(m.order[:0], snap...)
		if rot := s.rotor[sid]; lrr && rot > 0 {
			start := len(snap)
			for i, x := range snap {
				if x.schedSeq > rot {
					start = i
					break
				}
			}
			m.order = append(append(m.order[:0], snap[start:]...), snap[:start]...)
		}
	}
	for m.cursor < len(m.order) && stale(m.order[m.cursor], now) {
		m.cursor++ // went stale mid-scan
	}
	if m.cursor == len(m.order) || m.order[m.cursor] != w {
		var want *Warp
		if m.cursor < len(m.order) {
			want = m.order[m.cursor]
		}
		m.t.Fatalf("cycle %d scheduler %d: scan visits %s, reference visits %s", now, sid, name(w), name(want))
	}
	m.cursor++
	return m.decide(s, w, now)
}

func (m *maskRig) decide(s *SM, w *Warp, now int64) bool {
	switch r := m.rnd.Intn(20); {
	case r < 11:
		m.cands = append(m.cands, w)
		return true
	case r < 14:
		return false // denied: stays awake, retried next cycle
	case r < 16:
		s.block(w, now+2+int64(m.rnd.Intn(20)), now, trace.ReasonScoreboard)
	default:
		// Long enough to count toward a full stall and offer the CTA.
		s.block(w, now+s.Cfg.LongStall+int64(m.rnd.Intn(100)), now, trace.ReasonMemory)
	}
	return false
}

// TestReadyMaskMatchesSortedPartition runs random wire / block / wake /
// evict-mid-scan / exit histories under GTO and LRR and requires the mask
// scan to make the same visits in the same order, and the same picks, as a
// scan over the sorted-slice partition; between Ticks the mask must stand
// for exactly the reference partition. The long-list cases keep more than
// 64 warps on one scheduler, so the mask spans words and grows while a scan
// is in progress.
func TestReadyMaskMatchesSortedPartition(t *testing.T) {
	b := isa.NewBuilder("mask")
	b.MovI(1, 7)
	for i := 0; i < 10; i++ {
		b.FAdd(isa.Reg(2+i), 1, isa.Reg(1+i%2)) // some scoreboard blocks of their own
	}
	b.Exit()
	prog := b.MustBuild(16)
	live, err := liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sched  SchedKind
		scheds int
		warps  int // MaxWarps
	}{
		{"gto", SchedGTO, 4, 64},
		{"lrr", SchedLRR, 4, 64},
		{"gto-long-list", SchedGTO, 1, 200},
		{"lrr-long-list", SchedLRR, 2, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				const grid = 400
				k := &kernels.Kernel{
					Profile:  kernels.Profile{Abbrev: "MASK", WarpsPerCTA: 2, Regs: 16},
					Prog:     prog,
					Live:     live,
					GridCTAs: grid,
				}
				cfg := Default()
				cfg.Scheduler, cfg.NumSchedulers = tc.sched, tc.scheds
				cfg.MaxWarps, cfg.MaxThreads, cfg.MaxCTAs = tc.warps, tc.warps*32, tc.warps/2
				cfg.MaxResidentCTAs = tc.warps
				m := &maskRig{t: t, rnd: rand.New(rand.NewSource(seed)), ref: make(refPartition, tc.scheds)}
				disp := &sliceDisp{total: grid}
				s := New(0, cfg, mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()), disp, m)
				m.s = s
				s.SetTrace(m)
				s.BindKernel(k)

				var now int64
				for len(s.Residents()) > 0 || disp.Remaining() > 0 {
					if now > 2_000_000 {
						t.Fatalf("seed %d: did not finish", seed)
					}
					next, _ := s.Tick(now)
					m.finish(nil)
					// Between Ticks the mask is the reference partition.
					var got refPartition = make([][]*Warp, tc.scheds)
					s.EachReadyWarp(func(sid int, w *Warp) { got[sid] = append(got[sid], w) })
					for sid := range got {
						if len(got[sid]) != len(m.ref[sid]) {
							t.Fatalf("seed %d cycle %d scheduler %d: mask marks %d warps, partition holds %d",
								seed, now, sid, len(got[sid]), len(m.ref[sid]))
						}
						for i, w := range got[sid] {
							if w != m.ref[sid][i] {
								t.Fatalf("seed %d cycle %d scheduler %d: mask position %d is %s, partition has %s",
									seed, now, sid, i, name(w), name(m.ref[sid][i]))
							}
						}
						m.maxList = max(m.maxList, len(s.schedWarps[sid]))
					}
					now = max(next, now+1)
				}
				if s.Cnt.Instructions != grid*2*12 {
					t.Errorf("seed %d: issued %d instructions, want %d", seed, s.Cnt.Instructions, grid*2*12)
				}
				if m.picks == 0 || m.evictions == 0 || m.wirings == 0 {
					t.Errorf("seed %d: %d picks, %d mid-scan evictions, %d mid-scan awake wirings: history too tame",
						seed, m.picks, m.evictions, m.wirings)
				}
				if tc.warps > 64*tc.scheds && m.maxList <= 64 {
					t.Errorf("seed %d: longest scheduler list %d never left one mask word", seed, m.maxList)
				}
			}
		})
	}
}

// TestCompactionKeepsPendingWakes: compaction moves warps to new wiring
// positions while their wake-ups are pending, and the wake ring's bits are
// positions. Whenever it runs — well before the wake-ups, at the top of the
// very Tick one of them is due in (wake-at-now), or once a wake-up that was
// registered in the queue has come within the ring's horizon (so the rebuild
// registers it a second time) — every sleeping warp must wake exactly once,
// at exactly its wake time, and the warps unwired meanwhile never.
func TestCompactionKeepsPendingWakes(t *testing.T) {
	for _, parkAt := range []int64{10, 13, 479, 499} {
		t.Run(fmt.Sprintf("park@%d", parkAt), func(t *testing.T) {
			cfg := Default()
			cfg.NumSchedulers = 1
			s := New(0, cfg, nil, nil, &nullPolicy{})
			mk := func(id, n int) *CTA {
				c := &CTA{ID: id, State: CTAActive, Warps: make([]*Warp, n)}
				for i := range c.Warps {
					c.Warps[i] = &Warp{CTA: c, Idx: i}
				}
				s.residents = append(s.residents, c)
				s.enterActive(c, 0, 0)
				return c
			}
			a, b := mk(0, 5), mk(1, 4) // a's tombstones will outnumber b's warps
			until := []int64{14, 30, 500, 12}
			woke := make([]int64, len(b.Warps))
			for now := int64(10); now <= 600; now++ {
				if now == parkAt+1 {
					if !s.compactDue {
						t.Fatal("parking CTA 0 left no compaction due")
					}
					s.compact(now)
					for p, w := range s.schedWarps[0] {
						if w != b.Warps[p] || w.schedPos != p {
							t.Fatalf("cycle %d: position %d holds %s after compaction", now, p, name(w))
						}
					}
				}
				s.drain(now)
				for i, w := range b.Warps {
					if !w.asleep && woke[i] == 0 && now > 10 {
						woke[i] = now
					}
				}
				if now == 10 {
					s.block(a.Warps[0], 13, now, trace.ReasonScoreboard)
					s.block(a.Warps[1], 31, now, trace.ReasonScoreboard)
					s.block(a.Warps[2], 500, now, trace.ReasonMemory)
					for i, w := range b.Warps {
						s.block(w, until[i], now, trace.ReasonScoreboard)
					}
				}
				if now == parkAt {
					s.Deactivate(a, CTAPendingRF, now)
				}
				want := int64(1) << 62
				for i, w := range b.Warps {
					if w.asleep {
						want = min(want, until[i])
					}
				}
				// Bits and events left behind by the parked CTA's warps may
				// ask for a Tick that then finds nothing to do, never for a
				// late one.
				if got := s.NextEventAt(now + 1); got > want {
					t.Fatalf("cycle %d: next event at %d, but a warp wakes at %d", now, got, want)
				}
			}
			for i, w := range b.Warps {
				if woke[i] != until[i] {
					t.Errorf("warp %d woke at cycle %d, blocked until %d", i, woke[i], until[i])
				}
				if w.asleep {
					t.Errorf("warp %d never woke", i)
				}
			}
			if s.awake != len(b.Warps) {
				t.Errorf("awake counter %d with %d warps awake: a wake-up was delivered twice", s.awake, len(b.Warps))
			}
			for _, w := range a.Warps {
				if !w.asleep {
					t.Errorf("warp %d of the parked CTA was woken", w.Idx)
				}
			}
		})
	}
}

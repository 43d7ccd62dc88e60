package sm

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/mem"
	"finereg/internal/trace"
)

// refDepReadyAt is the scoreboard check the busy mask replaced, kept as
// the reference: the latest ready time over every valid source, the
// predicate and the destination, loading regReady for each.
func refDepReadyAt(w *Warp, in *isa.Instr) int64 {
	ready := int32(0)
	for _, r := range in.Srcs[:in.NSrc] {
		if r.Valid() && w.regReady[r] > ready {
			ready = w.regReady[r]
		}
	}
	if in.Pred.Valid() && w.regReady[in.Pred] > ready {
		ready = w.regReady[in.Pred]
	}
	if in.Dst.Valid() && w.regReady[in.Dst] > ready {
		ready = w.regReady[in.Dst]
	}
	return int64(ready)
}

// TestBusyMaskMatchesReferenceScoreboard drives random programs through
// random issue histories: at every step the busy-mask depReadyAt must block
// exactly when the reference does, and until the same cycle.
func TestBusyMaskMatchesReferenceScoreboard(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nregs := 2 + r.Intn(isa.MaxRegs-1)
		reg := func() isa.Reg {
			if r.Intn(4) == 0 {
				return isa.RegNone
			}
			return isa.Reg(r.Intn(nregs))
		}
		prog := &isa.Program{Name: "random", RegsPerThread: nregs, Instrs: make([]isa.Instr, 1+r.Intn(40))}
		for pc := range prog.Instrs {
			ops := []isa.Op{isa.OpMOV, isa.OpFFMA, isa.OpMUFU, isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpBAR, isa.OpNOP}
			prog.Instrs[pc] = isa.Instr{
				Op:   ops[r.Intn(len(ops))],
				Dst:  reg(),
				Srcs: [3]isa.Reg{reg(), reg(), reg()},
				NSrc: uint8(r.Intn(4)),
				Pred: reg(),
			}
		}
		info := NewProgInfo(&kernels.Kernel{Prog: prog, Profile: kernels.Profile{WarpsPerCTA: 1, Regs: nregs}}, Default())
		w := info.newWarp(&CTA{}, 0, 1, 0)

		var now int64
		for step := 0; step < 4000; step++ {
			pc := r.Intn(prog.Len())
			in, row := prog.At(pc), &info.rows[pc]
			want := refDepReadyAt(w, in)
			got := w.depReadyAt(row.depMask, now)
			if (got > now) != (want > now) || (want > now && got != want) {
				t.Fatalf("seed %d step %d pc %d now %d: busy-mask says %d, reference %d", seed, step, pc, now, got, want)
			}
			if r := w.UntrackedPending(now); r >= 0 {
				t.Fatalf("seed %d step %d: R%d pending but not busy", seed, step, r)
			}
			switch {
			case want > now && r.Intn(2) == 0:
				now = want // sleep until the dependency resolves, as block does
			case want <= now && row.dst.Valid():
				// Issue: latencies span same-cycle results to DRAM round trips.
				w.setReady(row.dst, now+[]int64{0, 4, 16, 24, 28, 188, 700}[r.Intn(7)])
				now += int64(r.Intn(3))
			default:
				now += int64(r.Intn(40))
			}
		}
	}
}

// TestSaturatedReadyStaysPending: the scoreboard holds int32 cycles, so a
// ready time past 2^31 is stored as math.MaxInt32. The run loop never passes
// cycle 2^31-2 (gpu.Config.MaxCycles), so at every cycle a run can reach the
// register still reads as pending: it neither wraps into the past nor comes
// due early.
func TestSaturatedReadyStaysPending(t *testing.T) {
	w := &Warp{}
	const r = isa.Reg(5)
	w.setReady(r, 1<<40)
	for _, now := range []int64{0, 1 << 30, 1<<31 - 2} {
		if got := w.depReadyAt(1<<r, now); got <= now {
			t.Errorf("cycle %d: a register due at 2^40 reads as ready (depReadyAt %d)", now, got)
		}
	}
	if w.busy != 1<<r {
		t.Errorf("busy mask %#x, want only R%d", w.busy, r)
	}
}

// TestWarpFits448SizeClass: the int32 scoreboard is what puts a warp context
// in the allocator's 448-byte size class rather than the 704-byte one (256
// of its bytes are regReady). A field that pushes it back over costs every
// CTA launch that allocates.
func TestWarpFits448SizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Warp{}); n > 448 {
		t.Errorf("sm.Warp is %d bytes, over the 448-byte size class", n)
	}
}

// refEvent is one registered event as the specification sees it (DESIGN.md
// §4): a wake-up of warp id or a CTA-ready check of CTA id, due at cycle at,
// the seq-th event registered.
type refEvent struct {
	at  int64
	cta bool
	seq int
	id  int
}

// refFirst sorts the pending events into the specified delivery order — by
// cycle, a cycle's wake-ups before its CTA-ready checks, then push sequence
// — and returns the first if it is due. That sort is the whole specification.
func refFirst(pending []refEvent, now int64) (refEvent, bool) {
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.cta != b.cta {
			return !a.cta
		}
		return a.seq < b.seq
	})
	if len(pending) == 0 || pending[0].at > now {
		return refEvent{}, false
	}
	return pending[0], true
}

// orderRig is the policy and the trace sink of an SM whose warps are blocked
// and whose CTA-ready checks are scheduled at random — between drains and
// from inside OnCTAReady, while a drain is in progress — and checks every
// delivery, as it happens, against the sort.
type orderRig struct {
	nullPolicy
	t       *testing.T
	rnd     *rand.Rand
	s       *SM
	warps   []*Warp // id = index
	parked  []*CTA  // pending CTAs the checks are scheduled for; id = index
	pending []refEvent
	seq     int
	wakes   int
	checks  int
	nested  int // checks scheduled for the cycle being drained, from inside the drain
}

// push registers random events at cycle now, in the SM and in the reference.
func (r *orderRig) push(now int64, draining bool) {
	for n := r.rnd.Intn(4); n > 0; n-- {
		w := r.warps[r.rnd.Intn(len(r.warps))]
		if w.asleep {
			continue
		}
		// Latency classes on both sides of the ring's horizon, and its edges.
		d := []int64{1, 4, 16, 24, 28, 30, 31, 32, 33, 188, 700}[r.rnd.Intn(11)]
		r.seq++
		r.pending = append(r.pending, refEvent{at: now + d, seq: r.seq, id: w.Idx})
		r.s.block(w, now+d, now, trace.ReasonScoreboard)
	}
	for n := r.rnd.Intn(3); n > 0; n-- {
		d := []int64{0, 0, 1, 4, 31, 32, 200}[r.rnd.Intn(7)]
		id := r.rnd.Intn(len(r.parked))
		r.seq++
		r.pending = append(r.pending, refEvent{at: now + d, cta: true, seq: r.seq, id: id})
		r.s.ScheduleEvent(now+d, r.parked[id])
		if draining && d == 0 {
			r.nested++
		}
	}
}

// delivered checks one delivery against the reference and removes it there.
func (r *orderRig) delivered(cta bool, id int, now int64) {
	first, ok := refFirst(r.pending, now)
	if !ok {
		r.t.Fatalf("cycle %d: delivered (cta=%v, %d) with nothing due", now, cta, id)
	}
	at := 0
	if !cta {
		// The wake-ups of a cycle commute: any of them may be next.
		for i, e := range r.pending {
			if !e.cta && e.id == id && e.at == first.at {
				at = i
			}
		}
	}
	if e := r.pending[at]; first.cta != cta || e.cta != cta || e.id != id {
		r.t.Fatalf("cycle %d: delivered (cta=%v, %d), the specification delivers %+v next", now, cta, id, first)
	}
	r.pending = append(r.pending[:at], r.pending[at+1:]...)
}

func (r *orderRig) Event(e trace.Event) {
	if e.Kind == trace.WarpWake {
		r.wakes++
		r.delivered(false, e.Warp, e.Cycle)
	}
}

func (r *orderRig) OnCTAReady(s *SM, c *CTA, now int64) {
	r.checks++
	r.delivered(true, c.ID, now)
	if r.rnd.Intn(3) == 0 { // every check scheduling checks would never drain
		r.push(now, true)
	}
}

// TestEventOrderMatchesSpec drives the wake ring and the event queue with
// random registrations — near and far wake-ups, CTA-ready checks for later
// cycles, for the cycle being drained and (between drains) for one already
// drained — on scheduler lists of 128 warps, so ring slots span mask words as
// in characterization.go's runs, and requires every delivery to be the one a
// sort by (cycle, wake-up before check, push sequence) puts next. The same
// must hold with the ring out of the way (every wake-up through the queue),
// and with same-cycle wake-ups delivered in a scrambled order.
func TestEventOrderMatchesSpec(t *testing.T) {
	for _, mode := range []string{"ring", "queue-only", "scrambled"} {
		t.Run(mode, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := Default()
				cfg.NumSchedulers = 1 + int(seed)%3
				r := &orderRig{t: t, rnd: rand.New(rand.NewSource(seed))}
				s := New(0, cfg, nil, nil, r)
				switch mode {
				case "queue-only":
					s.InjectQueueOnlyWakes()
				case "scrambled":
					s.InjectScrambledWakes()
				}
				s.SetTrace(r)
				r.s = s
				c := &CTA{State: CTAActive, Warps: make([]*Warp, 128*cfg.NumSchedulers)}
				for i := range c.Warps {
					c.Warps[i] = &Warp{CTA: c, Idx: i}
				}
				r.warps = c.Warps
				s.enterActive(c, 0, 0)
				if s.ringShift == 0 {
					t.Fatal("ring slots are one word per scheduler for lists of 128")
				}
				for i := 0; i < 6; i++ {
					r.parked = append(r.parked, &CTA{ID: i, State: CTAPendingRF})
				}

				var now int64
				for step := 0; step < 6000; step++ {
					s.drain(now)
					if e, ok := refFirst(r.pending, now); ok {
						t.Fatalf("seed %d cycle %d: drained, but %+v was due", seed, now, e)
					}
					r.push(now, false)
					// The SM is ticked again at the earliest registered cycle,
					// and no earlier than the next one.
					next := int64(1) << 62
					for _, e := range r.pending {
						next = min(next, e.at)
					}
					if got := s.NextEventAt(now + 1); got != next {
						t.Fatalf("seed %d cycle %d: next event at %d, the earliest registered is at %d", seed, now, got, next)
					}
					now = max(now+1, min(next, now+int64(r.rnd.Intn(40))))
				}
				if r.wakes < 1000 || r.checks < 1000 || r.nested < 100 {
					t.Errorf("seed %d: %d wake-ups, %d checks, %d scheduled into a running drain: history too tame",
						seed, r.wakes, r.checks, r.nested)
				}
			}
		})
	}
}

// barrierParker parks its CTA, once, as soon as one of its warps waits at
// the barrier, and resumes it at the next CTA-ready check.
type barrierParker struct {
	nullPolicy
	parked bool
}

func (p *barrierParker) AllowIssue(s *SM, w *Warp, now int64) bool {
	for _, sib := range w.CTA.Warps {
		if sib.atBarrier && !p.parked {
			p.parked = true
			s.Deactivate(w.CTA, CTAPendingRF, now)
			return false
		}
	}
	return true
}

func (p *barrierParker) OnCTAReady(s *SM, c *CTA, now int64) { s.Reactivate(c, now, 0) }

// TestBarrierParkedWarpRegistersNoWake: resuming a CTA one of whose warps is
// parked at the barrier must not register a wake-up for that warp. Its wake
// time is the barrierParked sentinel, so the event would never come due, would
// still be queued when the warp's context retires into the pool, and would
// name whichever warp the context is re-armed as. None of the shipped policies
// parks a CTA in that state; this one does.
func TestBarrierParkedWarpRegistersNoWake(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.MovI(1, 7)
	b.Bar()
	b.FAdd(2, 1, 1)
	b.Exit()
	prog := b.MustBuild(8)
	live, err := liveness.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	k := &kernels.Kernel{
		Profile:  kernels.Profile{Abbrev: "BAR", WarpsPerCTA: 2, Regs: 8},
		Prog:     prog,
		Live:     live,
		GridCTAs: 1,
	}
	cfg := Default()
	cfg.NumSchedulers = 1 // one warp reaches the barrier a cycle before the other
	pol := &barrierParker{}
	disp := &sliceDisp{total: 1}
	s := New(0, cfg, mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies()), disp, pol)
	s.BindKernel(NewProgInfo(k, cfg), 0)
	end := drive(t, s, disp, 10_000)
	if !pol.parked || s.Cnt.CTASwitches != 1 {
		t.Fatalf("parked=%v, %d switches: the CTA was never parked with a warp at its barrier", pol.parked, s.Cnt.CTASwitches)
	}
	s.EachEventWarp(end, func(w *Warp, at int64) {
		t.Errorf("drained SM still has a wake-up registered for cycle %d (warp context retired: %v)", at, w.Retired())
	})
}

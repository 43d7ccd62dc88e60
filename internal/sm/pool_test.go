package sm

import (
	"reflect"
	"testing"

	"finereg/internal/isa"
)

// TestReusedWarpEqualsFresh: a retired context re-armed for a new CTA must
// be indistinguishable from a newly allocated one, however dirty it retired
// — in particular its scoreboard must be clear (a regReady left in the
// future without its busy bit breaks the busy-mask invariant the auditor
// checks) and the policy word zero (RegMutex would credit the new warp with
// the old one's SRP grant).
func TestReusedWarpEqualsFresh(t *testing.T) {
	s, _, _ := testSM(t, "CS", 4)
	info := s.Meta()
	if len(info.loopTrip) == 0 {
		t.Fatal("CS has no loop: the loop-counter re-arm would go untested")
	}
	old := &CTA{ID: 3}
	w := info.newWarp(old, 1, warpUID(3, 1), 77)
	// Dirty every field a run can touch.
	w.wakeAt, w.PC = 1234, 9
	w.asleep, w.longBlocked, w.atBarrier, w.exited = true, true, true, true
	for r := range w.regReady {
		w.regReady[r] = int32(1_000_000 + r) // far in the future
	}
	w.busy = 0 // the worst case: nothing marked busy
	for i := range w.loopRemain {
		w.loopRemain[i] = 1
	}
	w.divergeRet = append(w.divergeRet, 5, 6)
	w.schedSeq, w.schedID, w.schedPos = 41, 3, 17
	w.memCounter, w.touched, w.memWritten = 99, w.touched.Set(isa.Reg(2)), 0xff
	w.SetPolicyWord(12)

	c := &CTA{ID: 8}
	info.rearm(w, c, 2, warpUID(8, 2), 512)
	fresh := info.newWarp(c, 2, warpUID(8, 2), 512)
	if !reflect.DeepEqual(w, fresh) {
		t.Errorf("re-armed context differs from a fresh one:\n got %+v\nwant %+v", *w, *fresh)
	}
	if r := w.UntrackedPending(0); r >= 0 {
		t.Errorf("re-armed context has R%d in flight but not busy", r)
	}
	if w.PolicyWord() != 0 {
		t.Errorf("re-armed context kept policy word %d", w.PolicyWord())
	}

	// A pool outlives a stream rebind: a context retired under one kernel
	// must come out right under another with more loops.
	other := *info
	other.loopTrip = append(append([]int32(nil), info.loopTrip...), 7, 9)
	other.rearm(w, c, 2, warpUID(8, 2), 512)
	if fresh := other.newWarp(c, 2, warpUID(8, 2), 512); !reflect.DeepEqual(w, fresh) {
		t.Errorf("context re-armed under a kernel with more loops: loop counters %v, want %v",
			w.loopRemain, fresh.loopRemain)
	}
}

// TestPoolLifetimeRules drives a kernel whose CTAs finish and are replaced
// within the same Tick (finishCTA → FillSlots → LaunchNew) and pins the
// pool's lifetime rules:
//
//   - a context retired in a Tick is not reused before the next Tick — the
//     issuing call chain still holds it, and Tick reads its exited flag and
//     wiring sequence after issue returns;
//   - contexts are reused at all (the distinct contexts ever seen stay within
//     peak residency plus one Tick's retirements, not one per launched warp);
//   - CTA records are never reused: a policy's ScheduleEvent can outlive its
//     CTA, and a recycled record would turn that stale event into a spurious
//     OnCTAReady;
//   - a pooled context is marked retired and is in no resident CTA.
func TestPoolLifetimeRules(t *testing.T) {
	const grid = 96
	s, k, disp := testSM(t, "CS", grid)
	ctas := map[*CTA]bool{}   // every CTA record ever resident (kept reachable)
	warps := map[*Warp]bool{} // every warp context ever resident
	sameTick, peak := 0, 0
	var now int64
	for len(s.Residents()) > 0 || disp.Remaining() > 0 {
		if now > 5_000_000 {
			t.Fatal("CS did not finish")
		}
		owner := map[*Warp]*CTA{}
		before := map[*CTA]bool{}
		for _, c := range s.Residents() {
			before[c] = true
			for _, w := range c.Warps {
				owner[w] = c
			}
		}
		peak = max(peak, len(owner))
		next, _ := s.Tick(now)
		for _, c := range s.Residents() {
			if before[c] {
				continue
			}
			if ctas[c] {
				t.Fatalf("cycle %d: CTA record %p (now CTA %d) was resident before", now, c, c.ID)
			}
			for _, w := range c.Warps {
				if from := owner[w]; from != nil {
					t.Fatalf("cycle %d: CTA %d warp %d reuses the context CTA %d retired in this same Tick",
						now, c.ID, w.Idx, from.ID)
				}
			}
			sameTick++
		}
		for _, c := range s.Residents() {
			ctas[c] = true
			for _, w := range c.Warps {
				warps[w] = true
				if w.Retired() || w.CTA != c {
					t.Fatalf("cycle %d: CTA %d warp %d: retired=%v, belongs to %p", now, c.ID, w.Idx, w.Retired(), w.CTA)
				}
			}
		}
		for _, pool := range [][]*Warp{s.warpFree, s.warpRetired} {
			for _, w := range pool {
				if !w.Retired() {
					t.Fatalf("cycle %d: pooled context still names CTA %d", now, w.CTA.ID)
				}
			}
		}
		now = max(next, now+1)
	}
	if len(ctas) != grid {
		t.Errorf("%d distinct CTA records for %d launches", len(ctas), grid)
	}
	if sameTick == 0 {
		t.Fatal("no Tick both finished and launched a CTA; the next-Tick rule went unexercised")
	}
	// Without reuse there would be grid × warps-per-CTA contexts.
	if limit := peak + s.Cfg.NumSchedulers*k.Profile.WarpsPerCTA; len(warps) > limit {
		t.Errorf("%d distinct warp contexts for a peak residency of %d (limit %d): the pool is not reusing",
			len(warps), peak, limit)
	}
	if got := len(s.warpFree) + len(s.warpRetired); got != len(warps) {
		t.Errorf("drained SM pools %d contexts, %d were ever made", got, len(warps))
	}
}

package trace

import (
	"fmt"
	"sort"

	"finereg/internal/stats"
)

// StallAggregator is a Sink that buckets every warp-slot cycle of a run
// into a stall-reason histogram and accumulates per-CTA timelines.
//
// It runs a per-warp state machine: a warp wired into a scheduler is, at
// any cycle, in exactly one state (ready, blocked-for-reason, at a
// barrier). Transitions arrive as events; on each transition the elapsed
// segment is flushed into the state's bucket. Warp-slot totals are
// accumulated independently — only from activation/drop boundaries — so
// the partition invariant (sum of buckets == warp-slot cycles) is a real
// cross-check of the event stream, not an identity.
type StallAggregator struct {
	buckets [NumReasons]int64
	slot    int64 // warp-slot cycles, from residency boundaries only

	warps map[warpKey]*warpState
	ctas  map[ctaKey]*CTATimeline
	end   int64
}

type warpKey struct{ sm, cta, warp int }
type ctaKey struct{ sm, cta int }

type warpState struct {
	start    int64 // current segment start
	reason   StallReason
	activeAt int64 // residency segment start
	lastDeny int64 // dedupe multiple probes in one cycle
}

// CTATimeline summarizes one CTA's residency history.
type CTATimeline struct {
	SM, CTA       int
	LaunchAt      int64
	FinishAt      int64
	Activations   int64 // times the CTA entered execution (launch + resumes)
	Switches      int64 // deactivations (active -> pending)
	FullStalls    int64
	ActiveCycles  int64
	PendingCycles int64

	active     bool
	lastChange int64
}

// NewStallAggregator returns an empty aggregator ready to attach to a run.
func NewStallAggregator() *StallAggregator {
	return &StallAggregator{
		warps: make(map[warpKey]*warpState),
		ctas:  make(map[ctaKey]*CTATimeline),
	}
}

// Breakdown returns the accumulated histogram as a stats.StallBreakdown.
func (a *StallAggregator) Breakdown() *stats.StallBreakdown {
	return &stats.StallBreakdown{
		WarpSlotCycles:     a.slot,
		IssueCycles:        a.buckets[ReasonIssue],
		IdleCycles:         a.buckets[ReasonIdle],
		ScoreboardCycles:   a.buckets[ReasonScoreboard],
		MemoryCycles:       a.buckets[ReasonMemory],
		TransferCycles:     a.buckets[ReasonTransfer],
		RegDepletionCycles: a.buckets[ReasonRegDepletion],
		BarrierCycles:      a.buckets[ReasonBarrier],
	}
}

// Timelines returns the per-CTA summaries ordered by (SM, CTA id).
func (a *StallAggregator) Timelines() []*CTATimeline {
	out := make([]*CTATimeline, 0, len(a.ctas))
	for _, t := range a.ctas {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SM != out[j].SM {
			return out[i].SM < out[j].SM
		}
		return out[i].CTA < out[j].CTA
	})
	return out
}

// EndCycle returns the final simulated cycle reported by RunEnd.
func (a *StallAggregator) EndCycle() int64 { return a.end }

// flushTo closes the warp's current segment at cycle t (no-op when the
// segment is empty or t precedes its start, which happens when a release
// races an issue in the same cycle).
func (w *warpState) flushTo(a *StallAggregator, t int64) {
	if t > w.start {
		a.buckets[w.reason] += t - w.start
		w.start = t
	}
}

// ---- Sink implementation ----

// RunStart implements Sink.
func (a *StallAggregator) RunStart(kernel string, numSMs int) {}

// RunEnd implements Sink.
func (a *StallAggregator) RunEnd(now int64) { a.end = now }

// CTAEvent implements Sink; it maintains the per-CTA timelines (warp-level
// accounting arrives through the Warp* events).
func (a *StallAggregator) CTAEvent(sm int, kind CTAKind, cta int, now, arg int64) {
	k := ctaKey{sm, cta}
	t := a.ctas[k]
	if t == nil {
		t = &CTATimeline{SM: sm, CTA: cta, LaunchAt: now, FinishAt: -1, lastChange: now}
		a.ctas[k] = t
	}
	switch kind {
	case CTALaunch:
		t.active, t.lastChange = true, now
		t.Activations++
	case CTADeactivate:
		t.ActiveCycles += now - t.lastChange
		t.active, t.lastChange = false, now
		t.Switches++
	case CTAReactivate:
		t.PendingCycles += now - t.lastChange
		t.active, t.lastChange = true, now
		t.Activations++
	case CTAFinish:
		t.ActiveCycles += now - t.lastChange
		t.active, t.lastChange = false, now
		t.FinishAt = now
	case CTAFullStall:
		t.FullStalls++
	}
}

// WarpSpawn implements Sink.
func (a *StallAggregator) WarpSpawn(sm, cta, warp int, now, wakeAt int64, reason StallReason) {
	st := &warpState{start: now, activeAt: now, reason: ReasonIdle, lastDeny: -1}
	if wakeAt > now {
		st.reason = reason
	}
	a.warps[warpKey{sm, cta, warp}] = st
}

// WarpDrop implements Sink.
func (a *StallAggregator) WarpDrop(sm, cta, warp int, now int64) {
	k := warpKey{sm, cta, warp}
	if st := a.warps[k]; st != nil {
		st.flushTo(a, now)
		a.slot += now - st.activeAt
		delete(a.warps, k)
	}
}

// WarpBlock implements Sink.
func (a *StallAggregator) WarpBlock(sm, cta, warp int, now, until int64, reason StallReason) {
	if st := a.warps[warpKey{sm, cta, warp}]; st != nil {
		st.flushTo(a, now)
		st.reason = reason
	}
}

// WarpWake implements Sink.
func (a *StallAggregator) WarpWake(sm, cta, warp int, now int64) {
	if st := a.warps[warpKey{sm, cta, warp}]; st != nil {
		st.flushTo(a, now)
		st.reason = ReasonIdle
	}
}

// WarpIssue implements Sink.
func (a *StallAggregator) WarpIssue(sm, cta, warp int, now int64, pc int) {
	if st := a.warps[warpKey{sm, cta, warp}]; st != nil {
		st.flushTo(a, now)
		a.buckets[ReasonIssue]++
		st.start = now + 1
		st.reason = ReasonIdle
	}
}

// WarpDeny implements Sink. A warp can be probed (and denied) more than
// once in a cycle — GTO checks its greedy warp before scanning the pool —
// so repeated denials in the same cycle collapse to one depletion cycle.
func (a *StallAggregator) WarpDeny(sm, cta, warp int, now int64) {
	st := a.warps[warpKey{sm, cta, warp}]
	if st == nil || st.lastDeny == now {
		return
	}
	st.lastDeny = now
	st.flushTo(a, now)
	a.buckets[ReasonRegDepletion]++
	st.start = now + 1
	st.reason = ReasonIdle
}

// WarpBarrier implements Sink; the arrival follows the issue of the
// barrier instruction in the same cycle, so the segment starts at now+1.
func (a *StallAggregator) WarpBarrier(sm, cta, warp int, now int64) {
	if st := a.warps[warpKey{sm, cta, warp}]; st != nil {
		st.flushTo(a, now)
		st.reason = ReasonBarrier
	}
}

// WarpBarrierRelease implements Sink. The last arriver releases the
// barrier in its own issue cycle; its segment start (now+1) then precedes
// the release time and flushTo no-ops.
func (a *StallAggregator) WarpBarrierRelease(sm, cta, warp int, now int64) {
	if st := a.warps[warpKey{sm, cta, warp}]; st != nil {
		st.flushTo(a, now)
		st.reason = ReasonIdle
	}
}

// WarpExit implements Sink. The EXIT instruction's issue cycle was already
// counted by WarpIssue (which advanced the segment to now+1), so the
// warp's residency closes at now+1.
func (a *StallAggregator) WarpExit(sm, cta, warp int, now int64) {
	k := warpKey{sm, cta, warp}
	if st := a.warps[k]; st != nil {
		st.flushTo(a, now+1)
		a.slot += now + 1 - st.activeAt
		delete(a.warps, k)
	}
}

// RegTransfer implements Sink.
func (a *StallAggregator) RegTransfer(sm, cta int, kind TransferKind, regs, bytes int, now int64) {
}

// MemAccess implements Sink.
func (a *StallAggregator) MemAccess(sm int, now int64, lines, l1Miss, l2Miss int, queue float64) {
}

// TimelineTable renders the per-CTA summaries (at most limit rows, 0 = no
// limit) ordered by total resident time, longest first.
func (a *StallAggregator) TimelineTable(limit int) *stats.Table {
	tls := a.Timelines()
	sort.SliceStable(tls, func(i, j int) bool {
		return tls[i].ActiveCycles+tls[i].PendingCycles > tls[j].ActiveCycles+tls[j].PendingCycles
	})
	if limit > 0 && len(tls) > limit {
		tls = tls[:limit]
	}
	t := &stats.Table{Header: []string{"sm/cta", "launch", "finish", "acts", "switches", "stalls", "activeCyc", "pendingCyc"}}
	for _, tl := range tls {
		finish := "-"
		if tl.FinishAt >= 0 {
			finish = fmt.Sprintf("%d", tl.FinishAt)
		}
		t.AddRow(fmt.Sprintf("SM%d/CTA%d", tl.SM, tl.CTA),
			tl.LaunchAt, finish, tl.Activations, tl.Switches, tl.FullStalls,
			tl.ActiveCycles, tl.PendingCycles)
	}
	return t
}

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

// Event implements Sink. CTA kinds maintain the per-CTA timelines; warp
// kinds drive the per-warp state machine, each closing the warp's current
// segment at the event's cycle and opening the next.
func (a *StallAggregator) Event(e Event) {
	k := warpKey{e.SM, e.CTA, e.Warp}
	switch e.Kind {
	case RunEnd:
		a.end = e.Cycle
	case CTALaunch, CTADeactivate, CTAReactivate, CTAFinish, CTAFullStall, CTAReady:
		a.timeline(e)
	case WarpSpawn:
		a.warps[k] = &warpState{start: e.Cycle, activeAt: e.Cycle, reason: e.Reason, lastDeny: -1}
	case WarpBlock:
		a.next(k, e.Cycle, e.Reason)
	case WarpBarrier:
		// The arrival follows the barrier's issue in the same cycle, so the
		// segment starts at Cycle+1.
		a.next(k, e.Cycle, ReasonBarrier)
	case WarpWake, WarpBarrierRelease:
		// The last arriver releases the barrier in its own issue cycle; its
		// segment start (Cycle+1) then precedes the release and flushTo no-ops.
		a.next(k, e.Cycle, ReasonIdle)
	case WarpIssue, WarpDeny:
		// One cycle in the issue or the depletion bucket. A warp can be
		// probed (and denied) more than once in a cycle — GTO checks its
		// greedy warp before scanning the pool — and counts one cycle.
		st := a.warps[k]
		if st == nil || e.Kind == WarpDeny && st.lastDeny == e.Cycle {
			return
		}
		r := ReasonIssue
		if e.Kind == WarpDeny {
			r, st.lastDeny = ReasonRegDepletion, e.Cycle
		}
		st.flushTo(a, e.Cycle)
		a.buckets[r]++
		st.start, st.reason = e.Cycle+1, ReasonIdle
	case WarpDrop, WarpExit:
		// The EXIT instruction's issue cycle was already counted by
		// WarpIssue (which advanced the segment to Cycle+1), so an exiting
		// warp's residency closes at Cycle+1.
		end := e.Cycle
		if e.Kind == WarpExit {
			end++
		}
		if st := a.warps[k]; st != nil {
			st.flushTo(a, end)
			a.slot += end - st.activeAt
			delete(a.warps, k)
		}
	}
}

// next closes warp k's current segment at cycle now and opens one in
// reason r (a warp that is not resident is ignored).
func (a *StallAggregator) next(k warpKey, now int64, r StallReason) {
	if st := a.warps[k]; st != nil {
		st.flushTo(a, now)
		st.reason = r
	}
}

// timeline applies a CTA lifecycle event to the CTA's timeline.
func (a *StallAggregator) timeline(e Event) {
	k, now := ctaKey{e.SM, e.CTA}, e.Cycle
	t := a.ctas[k]
	if t == nil {
		t = &CTATimeline{SM: e.SM, CTA: e.CTA, LaunchAt: now, FinishAt: -1, lastChange: now}
		a.ctas[k] = t
	}
	switch e.Kind {
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

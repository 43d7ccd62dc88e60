// Package audit is the simulator's runtime invariant checker. The
// occupancy counters the timing model maintains incrementally (warpsUsed,
// threadsUsed, awake, shmemUsed, active/pending CTA counts) and the
// register accounting each policy maintains (regsFree, PCRF free space,
// SRP holds, DRAM pool occupancy) are exactly the bookkeeping the paper
// delegates to hardware — and exactly where a cycle-level simulator rots:
// one skipped decrement corrupts every downstream figure silently.
//
// The auditor re-derives each counter from first principles — by walking
// the resident CTA set, the per-warp flags, the scheduler lists, the wake
// ring and event queue, and (for FineReg) the PCRF tag chains — and compares. gpu.Run
// invokes it when Config.Audit is set: a full sweep every AuditInterval
// cycles plus a targeted sweep of any SM whose CTA lifecycle counters
// changed since the last event step, so every launch/switch/finish
// transition is audited at the step it happened. A mismatch aborts the run
// with a *Violation carrying the rule, both values, and a full state dump.
//
// The companion package audit/diff layers differential validation on top:
// cross-policy invariants (the executed instruction stream is
// policy-invariant) and replay determinism over random kernels.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"finereg/internal/mem"
	"finereg/internal/sm"
)

// DefaultInterval is the periodic full-sweep period in cycles when
// gpu.Config.AuditInterval is zero. Transitions are audited as they happen
// regardless; the periodic sweep bounds how long a drift that does not
// change CTA counts (e.g. a leaked awake counter) can go unnoticed.
const DefaultInterval = 4096

// DefaultMaxViolations caps how many violations collect mode retains in
// full (with state dumps); further violations are still counted per rule.
const DefaultMaxViolations = 32

// Violation is a failed invariant: which SM, when, which rule, and the
// mismatching values, plus a rendered dump of the SM's resident state.
// It flows out through gpu.Run's error return.
type Violation struct {
	SM    int
	Cycle int64
	// Rule names the invariant (e.g. "warpsUsed", "policy:regsFree").
	Rule string
	// Got is the maintained value, Want the recomputed ground truth.
	Got, Want int64
	// Detail optionally qualifies the mismatch (range bounds, CTA id).
	Detail string
	// Dump is the SM's resident/warp state at detection time.
	Dump string
}

// Error implements error.
func (v *Violation) Error() string {
	msg := fmt.Sprintf("audit: SM%d cycle %d: %s = %d, want %d", v.SM, v.Cycle, v.Rule, v.Got, v.Want)
	if v.Detail != "" {
		msg += " (" + v.Detail + ")"
	}
	if v.Dump != "" {
		msg += "\n" + v.Dump
	}
	return msg
}

// sig is the transition signature: if any of these change between event
// steps, a CTA lifecycle transition happened on the SM and it is audited
// immediately rather than waiting for the interval sweep.
type sig struct {
	launched, switches int64
	residents          int
	active, pending    int
}

func sigOf(s *sm.SM) sig {
	return sig{
		launched:  s.Cnt.CTAsLaunched,
		switches:  s.Cnt.CTASwitches,
		residents: len(s.Residents()),
		active:    s.ActiveCTAs(),
		pending:   s.PendingCTAs(),
	}
}

// Options configures an Auditor.
type Options struct {
	// Interval is the periodic full-sweep period in cycles (<= 0 uses
	// DefaultInterval).
	Interval int64
	// ContinueOnViolation switches the auditor from fail-fast to
	// collect-all: instead of aborting the run at the first violation, the
	// auditor records it and lets the simulation continue, so one run
	// surfaces every distinct drift (a single root cause often trips
	// several rules; fail-fast shows only the first). Final then reports
	// the whole harvest as one *ViolationSet error.
	ContinueOnViolation bool
	// MaxViolations caps how many violations are retained in full in
	// collect mode (<= 0 uses DefaultMaxViolations). The per-rule counts
	// keep counting past the cap, so the summary stays truthful.
	MaxViolations int
}

// Auditor drives invariant checking over a set of SMs. One Auditor per
// run; it is not safe for concurrent use (gpu.Run is single-threaded).
type Auditor struct {
	// Interval is the periodic full-sweep period in cycles.
	Interval int64
	// Hier, when set, extends full sweeps and the final check with the
	// shared memory-hierarchy invariants (CheckHierarchy). gpu.Run wires
	// the machine's hierarchy in.
	Hier *mem.Hierarchy

	opts Options
	next int64
	sigs []sig

	// collect-mode harvest
	kept   []*Violation
	total  int
	byRule map[string]int
}

// New returns an Auditor sweeping every interval cycles (<= 0 uses
// DefaultInterval).
func New(interval int64) *Auditor {
	return NewWithOptions(Options{Interval: interval})
}

// NewWithOptions returns an Auditor configured by opts.
func NewWithOptions(opts Options) *Auditor {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = DefaultMaxViolations
	}
	return &Auditor{Interval: opts.Interval, opts: opts, byRule: map[string]int{}}
}

// check applies one SM check under the configured failure mode: fail-fast
// returns the violation; collect mode records it and reports success so
// the run continues.
func (a *Auditor) check(s *sm.SM, now int64) error {
	err := CheckSM(s, now)
	if err == nil || !a.opts.ContinueOnViolation {
		return err
	}
	a.record(err)
	return nil
}

// record harvests a violation in collect mode.
func (a *Auditor) record(err error) {
	v, ok := err.(*Violation)
	if !ok {
		v = &Violation{Rule: "unknown", Detail: err.Error()}
	}
	a.total++
	a.byRule[v.Rule]++
	if len(a.kept) < a.opts.MaxViolations {
		a.kept = append(a.kept, v)
	}
}

// Step audits after one event step at cycle now: every SM whose lifecycle
// signature changed since the previous step, and all SMs when the periodic
// interval has elapsed. Returns the first *Violation found, or nil.
func (a *Auditor) Step(sms []*sm.SM, now int64) error {
	if a.sigs == nil {
		a.sigs = make([]sig, len(sms))
		for i, s := range sms {
			a.sigs[i] = sigOf(s)
		}
		// First step: audit everything (kernel start transitions).
		a.next = now + a.Interval
		return a.sweep(sms, now)
	}
	full := now >= a.next
	if full {
		a.next = now + a.Interval
		return a.sweep(sms, now)
	}
	for i, s := range sms {
		if g := sigOf(s); g != a.sigs[i] {
			a.sigs[i] = g
			if err := a.check(s, now); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *Auditor) sweep(sms []*sm.SM, now int64) error {
	if len(a.sigs) < len(sms) {
		// Final may run on an auditor whose Step never fired (empty grid,
		// direct use); allocate the signature slots it would have set up.
		a.sigs = make([]sig, len(sms))
	}
	for i, s := range sms {
		a.sigs[i] = sigOf(s)
		if err := a.check(s, now); err != nil {
			return err
		}
	}
	// The hierarchy invariants are machine-global sums, so they ride the
	// full sweeps rather than per-SM transition checks.
	if a.Hier != nil {
		if err := CheckHierarchy(sms, a.Hier, now); err != nil {
			if !a.opts.ContinueOnViolation {
				return err
			}
			a.record(err)
		}
	}
	return nil
}

// Final audits every SM once (end-of-run leak check: a drained machine
// must account every resource as free). In collect mode it then reports
// the whole run's harvest: a *ViolationSet error when anything was
// recorded, nil otherwise.
func (a *Auditor) Final(sms []*sm.SM, now int64) error {
	if err := a.sweep(sms, now); err != nil {
		return err
	}
	return a.Report()
}

// Report returns the collect-mode harvest as an error: nil when no
// violation was recorded, otherwise a *ViolationSet with the retained
// violations and complete per-rule counts. Fail-fast auditors always
// report nil (their violations abort the run directly).
func (a *Auditor) Report() error {
	if a.total == 0 {
		return nil
	}
	return &ViolationSet{Violations: a.kept, Total: a.total, ByRule: a.byRule}
}

// ViolationSet is the collect-mode run verdict: every violation the run
// produced, summarized per rule, with the first MaxViolations retained in
// full (dumps included).
type ViolationSet struct {
	// Violations holds the retained violations in detection order.
	Violations []*Violation
	// Total counts every violation, including those beyond the retention
	// cap.
	Total int
	// ByRule counts violations per rule name.
	ByRule map[string]int
}

// Error implements error: a per-rule summary line plus the first retained
// violation in full (the complete harvest stays available via the fields).
func (s *ViolationSet) Error() string {
	rules := make([]string, 0, len(s.ByRule))
	for r := range s.ByRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = fmt.Sprintf("%s x%d", r, s.ByRule[r])
	}
	msg := fmt.Sprintf("audit: %d violations (%s)", s.Total, strings.Join(parts, ", "))
	if len(s.Violations) > 0 {
		msg += "\nfirst: " + s.Violations[0].Error()
	}
	return msg
}

// Summary renders the per-rule counts and every retained violation's
// headline (dumps elided) — the end-of-run report CLIs print.
func (s *ViolationSet) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violations across %d rules\n", s.Total, len(s.ByRule))
	rules := make([]string, 0, len(s.ByRule))
	for r := range s.ByRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(&b, "  %-24s x%d\n", r, s.ByRule[r])
	}
	if len(s.Violations) < s.Total {
		fmt.Fprintf(&b, "retained %d of %d in full:\n", len(s.Violations), s.Total)
	}
	for _, v := range s.Violations {
		detail := ""
		if v.Detail != "" {
			detail = " (" + v.Detail + ")"
		}
		fmt.Fprintf(&b, "  SM%d @%d %s = %d, want %d%s\n", v.SM, v.Cycle, v.Rule, v.Got, v.Want, detail)
	}
	return strings.TrimRight(b.String(), "\n")
}

// CheckSM verifies every invariant of one SM at cycle now and returns the
// first *Violation, or nil. It must be called between Tick rounds (the
// counters are transiently inconsistent mid-issue).
//
// Invariant catalogue (DESIGN.md §10):
//
//	occupancy   warpsUsed, threadsUsed, awake, shmemUsed, activeCTAs,
//	            pendingCTAs equal sums over residents and warp flags
//	residents   the resident list is strictly ascending by CTA ID (what
//	            makes the SM's first-match selectors pick the oldest)
//	warp flags  an awake warp is schedulable (woken, active CTA, not
//	            exited/parked); per-CTA stalledWarps/barWaiting/
//	            finishedWarps match the per-warp flags
//	schedulers  the scheduler lists hold exactly the live warps of active
//	            CTAs, each once, sorted by wiring sequence; entry count ==
//	            warpsUsed
//	ready       the ready masks' set bits stand for exactly the awake
//	            warps, each once, wired, in wiring order; bit count == awake
//	scoreboard  every resident warp's busy mask covers the registers
//	            whose values are still in flight (regReady > now)
//	events      no event is due and unserviced (NextEventAt >= now); no
//	            wake-up names a warp context retired into the pool; every
//	            sleeping wired warp not at its barrier has a wake-up
//	            registered for exactly its wake time, in the ring or queue
//	policy      every sm.SelfAuditing account matches its recomputed
//	            ground truth and stays within [Min, Max]
func CheckSM(s *sm.SM, now int64) error {
	if !s.KernelBound() {
		return nil
	}
	fail := func(rule string, got, want int64, detail string) error {
		return &Violation{SM: s.ID, Cycle: now, Rule: rule, Got: got, Want: want,
			Detail: detail, Dump: DumpSM(s, now)}
	}

	// Ground truth from the resident set.
	var active, pending, warps, awake, shmem int
	lastID := -1
	for _, c := range s.Residents() {
		if c.ID <= lastID {
			return fail("residents:ascending", int64(c.ID), int64(lastID+1),
				fmt.Sprintf("CTA %d listed after CTA %d", c.ID, lastID))
		}
		lastID = c.ID
		switch {
		case c.State == sm.CTAActive:
			active++
		case c.State.IsPending():
			pending++
		default:
			return fail("residentState", int64(c.State), int64(sm.CTAActive),
				fmt.Sprintf("CTA %d resident in non-resident state", c.ID))
		}
		shmem += s.SharedMemPerCTA()

		var exited, stalled, atBar int
		for _, w := range c.Warps {
			if w.Exited() {
				exited++
				if w.LongBlocked() {
					return fail("warpFlags", 1, 0,
						fmt.Sprintf("CTA %d warp %d exited but longBlocked", c.ID, w.Idx))
				}
				continue
			}
			if r := w.UntrackedPending(now); r >= 0 {
				return fail("busyMask", 0, 1,
					fmt.Sprintf("CTA %d warp %d: R%d is still in flight but not in the busy mask", c.ID, w.Idx, r))
			}
			if w.LongBlocked() {
				stalled++
			}
			if w.AtBarrier() {
				atBar++
			}
			if c.State == sm.CTAActive {
				warps++
				if !w.Asleep() {
					awake++
					if w.WakeAt() > now {
						return fail("awakeWake", w.WakeAt(), now,
							fmt.Sprintf("CTA %d warp %d awake before its wake time", c.ID, w.Idx))
					}
					if w.AtBarrier() {
						return fail("awakeBarrier", 1, 0,
							fmt.Sprintf("CTA %d warp %d awake while parked at barrier", c.ID, w.Idx))
					}
				}
			} else if !w.Asleep() {
				return fail("pendingAwake", 1, 0,
					fmt.Sprintf("pending CTA %d has awake warp %d", c.ID, w.Idx))
			}
		}
		if c.FinishedWarps() != exited {
			return fail("finishedWarps", int64(c.FinishedWarps()), int64(exited),
				fmt.Sprintf("CTA %d", c.ID))
		}
		if c.StalledWarps() != stalled {
			return fail("stalledWarps", int64(c.StalledWarps()), int64(stalled),
				fmt.Sprintf("CTA %d", c.ID))
		}
		if c.BarWaiting() != atBar {
			return fail("barWaiting", int64(c.BarWaiting()), int64(atBar),
				fmt.Sprintf("CTA %d", c.ID))
		}
	}

	// Occupancy counters against the recomputed sums.
	if s.ActiveCTAs() != active {
		return fail("activeCTAs", int64(s.ActiveCTAs()), int64(active), "")
	}
	if s.PendingCTAs() != pending {
		return fail("pendingCTAs", int64(s.PendingCTAs()), int64(pending), "")
	}
	if s.WarpsUsed() != warps {
		return fail("warpsUsed", int64(s.WarpsUsed()), int64(warps), "")
	}
	if s.ThreadsUsed() != warps*32 {
		return fail("threadsUsed", int64(s.ThreadsUsed()), int64(warps*32), "")
	}
	if s.AwakeWarps() != awake {
		return fail("awake", int64(s.AwakeWarps()), int64(awake), "")
	}
	if s.SharedMemUsed() != shmem {
		return fail("shmemUsed", int64(s.SharedMemUsed()), int64(shmem), "")
	}

	// Scheduler lists: exactly the live (non-exited) warps of active CTAs,
	// each wired once — exitWarp compacts a retired warp out immediately,
	// so an exited entry is a leak — kept sorted by wiring sequence (the
	// order both schedulers scan in, and the invariant pickLRR's rotation
	// anchor depends on).
	seen := make(map[*sm.Warp]int)
	listed := 0
	lastSID, lastSeq := -1, int64(0)
	var dup error
	s.EachSchedulerWarp(func(sid int, w *sm.Warp) {
		seen[w]++
		if dup != nil {
			return
		}
		if seen[w] > 1 {
			dup = fail("schedulerDup", int64(seen[w]), 1,
				fmt.Sprintf("CTA %d warp %d wired %d times", w.CTA.ID, w.Idx, seen[w]))
			return
		}
		if w.Exited() {
			dup = fail("schedulerExited", 1, 0,
				fmt.Sprintf("scheduler %d holds exited warp %d of CTA %d", sid, w.Idx, w.CTA.ID))
			return
		}
		if w.CTA.State != sm.CTAActive {
			dup = fail("schedulerStale", int64(w.CTA.State), int64(sm.CTAActive),
				fmt.Sprintf("scheduler %d holds warp of non-active CTA %d", sid, w.CTA.ID))
			return
		}
		if sid == lastSID && w.SchedSeq() <= lastSeq {
			dup = fail("schedulerOrder", w.SchedSeq(), lastSeq+1,
				fmt.Sprintf("scheduler %d list not sorted by wiring sequence at CTA %d warp %d",
					sid, w.CTA.ID, w.Idx))
			return
		}
		lastSID, lastSeq = sid, w.SchedSeq()
		listed++
	})
	if dup != nil {
		return dup
	}
	if listed != warps {
		return fail("schedulerCoverage", int64(listed), int64(warps),
			"scheduler entries vs active-CTA warps")
	}

	// Ready masks: per scheduler, the set bits stand for exactly the awake
	// subset of the wired warps, in the same wiring-sequence order. Together
	// with the awake-count match this proves the mask marks every issue
	// candidate exactly once — a warp missing here would silently never
	// issue (the dense scan had no such failure mode; the mask makes it an
	// auditable one).
	readySeen := make(map[*sm.Warp]bool)
	readyCount := 0
	lastSID, lastSeq = -1, 0
	s.EachReadyWarp(func(sid int, w *sm.Warp) {
		if dup != nil {
			return
		}
		if w == nil {
			dup = fail("readyUnwired", 1, 0,
				fmt.Sprintf("ready mask %d has a bit set on a position that holds no warp", sid))
			return
		}
		if readySeen[w] {
			dup = fail("readyDup", 2, 1,
				fmt.Sprintf("CTA %d warp %d in ready mask twice", w.CTA.ID, w.Idx))
			return
		}
		readySeen[w] = true
		if seen[w] == 0 {
			dup = fail("readyUnwired", 1, 0,
				fmt.Sprintf("ready mask %d marks unwired warp %d of CTA %d", sid, w.Idx, w.CTA.ID))
			return
		}
		if w.Asleep() || w.Exited() || w.CTA.State != sm.CTAActive {
			dup = fail("readyStale", 1, 0,
				fmt.Sprintf("ready mask %d marks unschedulable warp %d of CTA %d (asleep=%v exited=%v state=%d)",
					sid, w.Idx, w.CTA.ID, w.Asleep(), w.Exited(), w.CTA.State))
			return
		}
		if sid == lastSID && w.SchedSeq() <= lastSeq {
			dup = fail("readyOrder", w.SchedSeq(), lastSeq+1,
				fmt.Sprintf("ready mask %d not in wiring-sequence order at CTA %d warp %d",
					sid, w.CTA.ID, w.Idx))
			return
		}
		lastSID, lastSeq = sid, w.SchedSeq()
		readyCount++
	})
	if dup != nil {
		return dup
	}
	if readyCount != awake {
		return fail("readyCoverage", int64(readyCount), int64(awake),
			"ready-mask bits vs awake warps")
	}

	// Events: Tick(now) delivers everything due at or before now, and
	// nothing scheduled during the tick may be in the past.
	if next := s.NextEventAt(now); next < now {
		return fail("eventOverdue", next, now, "event due before the current cycle")
	}
	// A warp exits at or after its last wake, and every wake-up registered
	// for it is due by then, so none is left when its context retires — one
	// that were would wake whichever warp the context is re-armed as. And a
	// sleeping warp of an active CTA that is not parked at its barrier wakes
	// only through a wake-up registered for exactly its wake time, in the
	// ring or in the queue: without one it sleeps forever.
	retiredEvents := 0
	covered := make(map[*sm.Warp]bool)
	s.EachEventWarp(now, func(w *sm.Warp, at int64) {
		if w.Retired() {
			retiredEvents++
		} else if at == w.WakeAt() {
			covered[w] = true
		}
	})
	if retiredEvents > 0 {
		return fail("retiredEvent", int64(retiredEvents), 0,
			"wake events for warp contexts retired into the pool")
	}
	s.EachSchedulerWarp(func(_ int, w *sm.Warp) {
		if dup == nil && w.Asleep() && !w.AtBarrier() && !covered[w] {
			dup = fail("wakeCoverage", 0, 1,
				fmt.Sprintf("CTA %d warp %d sleeps until %d with no wake-up registered for that cycle",
					w.CTA.ID, w.Idx, w.WakeAt()))
		}
	})
	if dup != nil {
		return dup
	}

	// L1 accounting: hit/miss conservation (Hits is maintained on a
	// different code path than Accesses/Misses, so the sum is a real
	// check) and tag-array residency (lines only become valid via miss
	// fills, so the resident count can exceed neither the cumulative
	// misses nor the capacity).
	if l1 := s.L1; l1 != nil {
		if l1.Hits+l1.Misses != l1.Accesses {
			return fail("mem:l1Conservation", l1.Hits+l1.Misses, l1.Accesses,
				fmt.Sprintf("hits %d + misses %d vs accesses", l1.Hits, l1.Misses))
		}
		resident := int64(l1.ResidentLines())
		if resident > l1.Misses {
			return fail("mem:l1Residency", resident, l1.Misses,
				"valid lines exceed cumulative miss fills")
		}
		if lines := int64(l1.SizeBytes() / mem.LineBytes); resident > lines {
			return fail("mem:l1Residency", resident, lines, "valid lines exceed capacity")
		}
	}

	// Policy accounting.
	if p, ok := s.Pol.(sm.SelfAuditing); ok {
		for _, acc := range p.AuditAccounting(s) {
			if acc.Value != acc.Expected {
				return fail("policy:"+acc.Name, int64(acc.Value), int64(acc.Expected), "")
			}
			if acc.Value < acc.Min || acc.Value > acc.Max {
				return fail("policy:"+acc.Name, int64(acc.Value), int64(acc.Expected),
					fmt.Sprintf("outside [%d, %d]", acc.Min, acc.Max))
			}
		}
	}
	return nil
}

// DumpSM renders the SM's counters and resident/warp state for violation
// reports.
func DumpSM(s *sm.SM, now int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SM%d @%d: active=%d pending=%d warpsUsed=%d threadsUsed=%d awake=%d shmem=%d nextEvent=%d\n",
		s.ID, now, s.ActiveCTAs(), s.PendingCTAs(), s.WarpsUsed(), s.ThreadsUsed(),
		s.AwakeWarps(), s.SharedMemUsed(), s.NextEventAt(now))
	for _, c := range s.Residents() {
		fmt.Fprintf(&b, "  CTA%d state=%d stalled=%d bar=%d finished=%d ready=%d %s\n",
			c.ID, c.State, c.StalledWarps(), c.BarWaiting(), c.FinishedWarps(), c.ReadyAt,
			c.DebugWarps())
	}
	if p, ok := s.Pol.(sm.SelfAuditing); ok {
		for _, acc := range p.AuditAccounting(s) {
			fmt.Fprintf(&b, "  %s: %s=%d expected=%d range=[%d,%d]\n",
				s.Pol.Name(), acc.Name, acc.Value, acc.Expected, acc.Min, acc.Max)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

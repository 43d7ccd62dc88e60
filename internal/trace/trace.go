// Package trace is the simulator's cycle-level observability layer. The
// timing model (internal/sm, internal/gpu) and the register-file policies
// (internal/core, internal/regfile) emit structured events into a Sink;
// consumers turn the stream into artifacts:
//
//   - ChromeWriter renders a chrome://tracing / Perfetto-compatible JSON
//     timeline (one track per SM, one sub-track per CTA slot) so a run's
//     context-switch choreography is visually inspectable;
//   - StallAggregator buckets every non-issuing warp-slot cycle into a
//     stall-reason histogram (stats.StallBreakdown) and per-CTA timelines.
//
// Tracing is opt-in and costs nothing when disabled: every emission site
// is guarded by a sink-nil check, so the default (no sink attached) adds
// only an untaken branch to the hot paths. Multi fans one event stream out
// to several consumers.
package trace

// StallReason classifies what a warp slot is doing during one cycle. Every
// cycle of every warp wired into a scheduler lands in exactly one bucket;
// the StallAggregator enforces the partition (sum of buckets == warp-slot
// cycles).
type StallReason uint8

const (
	// ReasonIssue: the warp issued an instruction this cycle.
	ReasonIssue StallReason = iota
	// ReasonIdle: the warp was issue-ready but its scheduler picked another
	// warp (or nothing) this cycle.
	ReasonIdle
	// ReasonScoreboard: blocked on a short-latency dependency (ALU, SFU,
	// shared memory).
	ReasonScoreboard
	// ReasonMemory: blocked on a global-memory dependency (L1/L2/DRAM).
	ReasonMemory
	// ReasonTransfer: waiting out a CTA-switch register transfer or
	// pipeline drain (PCRF/DRAM context movement, SwitchDrainLat).
	ReasonTransfer
	// ReasonRegDepletion: issue denied by the policy for lack of register
	// resources (RegMutex SRP acquisition failure).
	ReasonRegDepletion
	// ReasonBarrier: parked at a CTA-wide barrier.
	ReasonBarrier
	// NumReasons bounds the enum.
	NumReasons
)

// String names the reason for tables and trace labels.
func (r StallReason) String() string {
	switch r {
	case ReasonIssue:
		return "issue"
	case ReasonIdle:
		return "idle"
	case ReasonScoreboard:
		return "scoreboard"
	case ReasonMemory:
		return "memory"
	case ReasonTransfer:
		return "transfer"
	case ReasonRegDepletion:
		return "reg-depletion"
	case ReasonBarrier:
		return "barrier"
	}
	return "unknown"
}

// CTAKind labels CTA lifecycle events.
type CTAKind uint8

const (
	// CTALaunch: a fresh CTA entered execution (grid -> active).
	CTALaunch CTAKind = iota
	// CTADeactivate: active -> pending; arg carries the pending-state code
	// (the sm.CTAState the CTA parked into).
	CTADeactivate
	// CTAReactivate: pending -> active; arg carries the reactivation delay.
	CTAReactivate
	// CTAFinish: the CTA's last warp exited.
	CTAFinish
	// CTAFullStall: every non-exited warp is long-blocked (the CTA-switch
	// trigger; instant).
	CTAFullStall
	// CTAReady: a pending CTA's earliest warp dependency resolved (instant).
	CTAReady
)

// String names the kind for trace labels.
func (k CTAKind) String() string {
	switch k {
	case CTALaunch:
		return "launch"
	case CTADeactivate:
		return "deactivate"
	case CTAReactivate:
		return "reactivate"
	case CTAFinish:
		return "finish"
	case CTAFullStall:
		return "full-stall"
	case CTAReady:
		return "ready"
	}
	return "unknown"
}

// TransferKind labels register-movement events.
type TransferKind uint8

const (
	// XferEvictToPCRF: live registers chained ACRF -> PCRF (FineReg).
	XferEvictToPCRF TransferKind = iota
	// XferRestoreFromPCRF: chain read back PCRF -> ACRF.
	XferRestoreFromPCRF
	// XferSpillToDRAM: full register context DMA'd off-chip (Reg+DRAM).
	XferSpillToDRAM
	// XferPrefetchFromDRAM: off-chip context fetched back on-chip.
	XferPrefetchFromDRAM
	// XferBitvec: live-register bit-vector fetch through the RMU cache.
	XferBitvec
)

// String names the transfer for trace labels.
func (k TransferKind) String() string {
	switch k {
	case XferEvictToPCRF:
		return "evict>PCRF"
	case XferRestoreFromPCRF:
		return "restore<PCRF"
	case XferSpillToDRAM:
		return "spill>DRAM"
	case XferPrefetchFromDRAM:
		return "prefetch<DRAM"
	case XferBitvec:
		return "bitvec-fetch"
	}
	return "unknown"
}

// Sink receives the simulator's event stream. One Sink serves the whole
// GPU; every method carries the SM id. Implementations must not retain the
// goroutine — the simulator is single-threaded and calls are synchronous.
//
// Warps are identified by (sm, cta, warp): the CTA's grid-global id plus
// the warp's index within it.
type Sink interface {
	// RunStart opens a run (kernel name, machine size).
	RunStart(kernel string, numSMs int)
	// RunEnd closes the run at the final simulated cycle.
	RunEnd(now int64)

	// CTAEvent reports a CTA lifecycle transition. arg is kind-specific:
	// the pending-state code for CTADeactivate, the reactivation delay for
	// CTAReactivate, 0 otherwise.
	CTAEvent(sm int, kind CTAKind, cta int, now, arg int64)

	// WarpSpawn: the warp entered a scheduler (its CTA was activated). If
	// wakeAt > now the warp starts blocked for the given reason (transfer
	// drain or a still-pending memory dependency).
	WarpSpawn(sm, cta, warp int, now, wakeAt int64, reason StallReason)
	// WarpDrop: the warp left its scheduler (its CTA was deactivated).
	WarpDrop(sm, cta, warp int, now int64)
	// WarpBlock: a scheduler probe found the warp's dependencies unready;
	// it sleeps until `until`.
	WarpBlock(sm, cta, warp int, now, until int64, reason StallReason)
	// WarpWake: a sleeping warp became schedulable again.
	WarpWake(sm, cta, warp int, now int64)
	// WarpIssue: the warp issued the instruction at pc this cycle.
	WarpIssue(sm, cta, warp int, now int64, pc int)
	// WarpDeny: the policy refused issue (register-resource depletion).
	WarpDeny(sm, cta, warp int, now int64)
	// WarpBarrier: the warp arrived at a CTA-wide barrier.
	WarpBarrier(sm, cta, warp int, now int64)
	// WarpBarrierRelease: the barrier opened for this warp.
	WarpBarrierRelease(sm, cta, warp int, now int64)
	// WarpExit: the warp retired (EXIT issued at cycle now).
	WarpExit(sm, cta, warp int, now int64)

	// RegTransfer: regs warp-registers (bytes total) moved for cta.
	RegTransfer(sm, cta int, kind TransferKind, regs, bytes int, now int64)
	// MemAccess: one warp global-memory instruction touched `lines` cache
	// lines with the given miss counts; queue is the DRAM channel backlog
	// (cycles) sampled at issue.
	MemAccess(sm int, now int64, lines, l1Miss, l2Miss int, queue float64)
}

// Noop is a Sink that discards everything — the measurable upper bound of
// tracing's dispatch overhead (a nil sink skips even the interface call).
type Noop struct{}

// RunStart implements Sink.
func (Noop) RunStart(string, int) {}

// RunEnd implements Sink.
func (Noop) RunEnd(int64) {}

// CTAEvent implements Sink.
func (Noop) CTAEvent(int, CTAKind, int, int64, int64) {}

// WarpSpawn implements Sink.
func (Noop) WarpSpawn(int, int, int, int64, int64, StallReason) {}

// WarpDrop implements Sink.
func (Noop) WarpDrop(int, int, int, int64) {}

// WarpBlock implements Sink.
func (Noop) WarpBlock(int, int, int, int64, int64, StallReason) {}

// WarpWake implements Sink.
func (Noop) WarpWake(int, int, int, int64) {}

// WarpIssue implements Sink.
func (Noop) WarpIssue(int, int, int, int64, int) {}

// WarpDeny implements Sink.
func (Noop) WarpDeny(int, int, int, int64) {}

// WarpBarrier implements Sink.
func (Noop) WarpBarrier(int, int, int, int64) {}

// WarpBarrierRelease implements Sink.
func (Noop) WarpBarrierRelease(int, int, int, int64) {}

// WarpExit implements Sink.
func (Noop) WarpExit(int, int, int, int64) {}

// RegTransfer implements Sink.
func (Noop) RegTransfer(int, int, TransferKind, int, int, int64) {}

// MemAccess implements Sink.
func (Noop) MemAccess(int, int64, int, int, int, float64) {}

// Multi fans events out to several sinks in order. Nil members are
// skipped; with zero or one non-nil member the result collapses to nil or
// that member.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) RunStart(kernel string, numSMs int) {
	for _, s := range m {
		s.RunStart(kernel, numSMs)
	}
}

func (m multiSink) RunEnd(now int64) {
	for _, s := range m {
		s.RunEnd(now)
	}
}

func (m multiSink) CTAEvent(sm int, kind CTAKind, cta int, now, arg int64) {
	for _, s := range m {
		s.CTAEvent(sm, kind, cta, now, arg)
	}
}

func (m multiSink) WarpSpawn(sm, cta, warp int, now, wakeAt int64, reason StallReason) {
	for _, s := range m {
		s.WarpSpawn(sm, cta, warp, now, wakeAt, reason)
	}
}

func (m multiSink) WarpDrop(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpDrop(sm, cta, warp, now)
	}
}

func (m multiSink) WarpBlock(sm, cta, warp int, now, until int64, reason StallReason) {
	for _, s := range m {
		s.WarpBlock(sm, cta, warp, now, until, reason)
	}
}

func (m multiSink) WarpWake(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpWake(sm, cta, warp, now)
	}
}

func (m multiSink) WarpIssue(sm, cta, warp int, now int64, pc int) {
	for _, s := range m {
		s.WarpIssue(sm, cta, warp, now, pc)
	}
}

func (m multiSink) WarpDeny(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpDeny(sm, cta, warp, now)
	}
}

func (m multiSink) WarpBarrier(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpBarrier(sm, cta, warp, now)
	}
}

func (m multiSink) WarpBarrierRelease(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpBarrierRelease(sm, cta, warp, now)
	}
}

func (m multiSink) WarpExit(sm, cta, warp int, now int64) {
	for _, s := range m {
		s.WarpExit(sm, cta, warp, now)
	}
}

func (m multiSink) RegTransfer(sm, cta int, kind TransferKind, regs, bytes int, now int64) {
	for _, s := range m {
		s.RegTransfer(sm, cta, kind, regs, bytes, now)
	}
}

func (m multiSink) MemAccess(sm int, now int64, lines, l1Miss, l2Miss int, queue float64) {
	for _, s := range m {
		s.MemAccess(sm, now, lines, l1Miss, l2Miss, queue)
	}
}

// Package trace is the simulator's cycle-level observability layer. The
// timing model (internal/sm, internal/gpu) and the register-file policies
// (internal/core, internal/regfile) emit one value type, Event, into a
// one-method Sink; consumers switch on its Kind and turn the stream into
// artifacts:
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

// Kind names what an Event reports. Every kind after RunEnd carries its SM
// and cycle; the comment on each kind lists the other fields it sets.
type Kind uint8

const (
	// RunStart opens a run or a stream segment: Kernel.
	RunStart Kind = iota
	// RunEnd closes it; Cycle is the final simulated cycle.
	RunEnd

	// CTALaunch: a fresh CTA entered execution (grid -> active). CTA.
	CTALaunch
	// CTADeactivate: active -> pending. CTA; Arg is the pending-state code
	// (the sm.CTAState the CTA parked into).
	CTADeactivate
	// CTAReactivate: pending -> active. CTA; Arg is the reactivation delay.
	CTAReactivate
	// CTAFinish: the CTA's last warp exited. CTA.
	CTAFinish
	// CTAFullStall: every non-exited warp is long-blocked (the CTA-switch
	// trigger; instant). CTA.
	CTAFullStall
	// CTAReady: a pending CTA's earliest warp dependency resolved
	// (instant). CTA.
	CTAReady

	// WarpSpawn: the warp entered a scheduler (its CTA was activated). CTA,
	// Warp; Reason is ReasonIdle, or what the warp starts blocked on (the
	// switch's transfer drain or a still-pending memory dependency).
	WarpSpawn
	// WarpDrop: the warp left its scheduler (its CTA was deactivated).
	WarpDrop
	// WarpBlock: a scheduler probe found the warp's dependencies unready;
	// Reason says which kind.
	WarpBlock
	// WarpWake: a sleeping warp became schedulable again.
	WarpWake
	// WarpIssue: the warp issued an instruction.
	WarpIssue
	// WarpDeny: the policy refused issue (register-resource depletion).
	WarpDeny
	// WarpBarrier: the warp arrived at a CTA-wide barrier.
	WarpBarrier
	// WarpBarrierRelease: the barrier opened for this warp.
	WarpBarrierRelease
	// WarpExit: the warp retired (EXIT issued at Cycle).
	WarpExit

	// RegTransfer: Regs warp-registers (Bytes in total) moved for CTA, in
	// the direction Xfer names.
	RegTransfer
	// MemAccess: a warp issued a global-memory instruction; Queue is the
	// DRAM channel backlog (cycles) sampled at issue.
	MemAccess
)

// Event is one entry of the simulator's event stream. Kind says which
// fields are set; the rest are zero. Warps are identified by (SM, CTA,
// Warp): the CTA's grid-global id plus the warp's index within it.
//
// The small payloads are int32 so that Arg packs into the word the three
// kind bytes start and Regs shares one with Bytes: at 72 bytes an Event
// is copied into a call by a few inline moves, where at 88 every emission
// paid a runtime.duffcopy (+13% on BenchmarkTraceNoopSink).
type Event struct {
	Kind   Kind
	Reason StallReason  // WarpSpawn, WarpBlock
	Xfer   TransferKind // RegTransfer
	Arg    int32        // CTADeactivate, CTAReactivate

	SM, CTA, Warp int
	Cycle         int64

	Regs, Bytes int32   // RegTransfer
	Queue       float64 // MemAccess
	Kernel      string  // RunStart
}

// Sink receives the simulator's event stream. One Sink serves the whole
// GPU. The simulator is single-threaded and calls are synchronous; a new
// kind of event is a Kind constant, and a sink ignores the kinds it does
// not know.
type Sink interface {
	Event(Event)
}

// Noop is a Sink that discards everything — the measurable upper bound of
// tracing's dispatch overhead (a nil sink skips even the interface call).
type Noop struct{}

// Event implements Sink.
func (Noop) Event(Event) {}

// Multi fans events out to several sinks in order. Nil members are
// skipped; with zero or one non-nil member the result collapses to nil or
// that member.
func Multi(sinks ...Sink) Sink {
	var live fanout
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
	return live
}

// fanout delivers every event to each member in turn.
type fanout []Sink

func (f fanout) Event(e Event) {
	for _, s := range f {
		s.Event(e)
	}
}

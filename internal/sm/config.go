// Package sm implements the cycle-level streaming-multiprocessor timing
// model: warp contexts, greedy-then-oldest (GTO) warp schedulers, a
// per-warp scoreboard, CTA slots and shared-memory allocation, stall
// classification, and the policy hooks that register-file management
// schemes (baseline, Virtual Thread, Reg+DRAM, RegMutex, FineReg) plug
// into.
//
// The model is warp-accurate and event-accelerated: each of the SM's
// schedulers issues at most one instruction per cycle from a ready warp;
// blocked warps sleep on an event heap until their scoreboard dependency
// resolves, and the SM reports the next cycle at which anything can happen
// so the GPU-level loop can skip idle gaps.
package sm

import "finereg/internal/kernels"

// SchedKind selects the warp scheduling policy.
type SchedKind uint8

const (
	// SchedGTO is greedy-then-oldest (Table I).
	SchedGTO SchedKind = iota
	// SchedLRR is loose round-robin, for ablations.
	SchedLRR
)

// Config holds the per-SM hardware parameters.
type Config struct {
	// Scheduling resources (Table I: 32 CTAs, 64 warps, 2048 threads,
	// 4 schedulers). MaxResidentCTAs bounds total resident (active +
	// pending) CTAs — the 128-CTA design point of FineReg's status
	// monitor, applied to every switching policy.
	MaxCTAs, MaxWarps, MaxThreads int
	MaxResidentCTAs               int
	NumSchedulers                 int
	Scheduler                     SchedKind

	// On-chip memory: total register file bytes (the policies decide how
	// it is partitioned) and shared memory bytes.
	RegFileBytes   int
	SharedMemBytes int

	// L1 geometry.
	L1Bytes, L1Ways int

	// Fixed latencies (cycles).
	ALULat, SFULat, ShmemLat int64

	// LongStall is the remaining-latency threshold beyond which a blocked
	// warp counts as stalled. A fully stalled CTA is offered for switching
	// only when its earliest warp wake-up is at least this far away, so
	// only DRAM-bound stalls (not L2 hits) trigger CTA switches.
	LongStall int64

	// SwitchDrainLat is the pipeline drain/refill cost of a CTA switch —
	// the Virtual Thread-style context movement through shared memory.
	SwitchDrainLat int64

	// TrackRegUsage enables the Figure 5 instrumentation (touched-register
	// fraction per 1000-instruction window).
	TrackRegUsage bool
}

// Default returns the Table I SM configuration.
func Default() Config {
	return Config{
		MaxCTAs:         32,
		MaxWarps:        64,
		MaxThreads:      2048,
		MaxResidentCTAs: 128,
		NumSchedulers:   4,
		Scheduler:       SchedGTO,
		RegFileBytes:    256 << 10,
		SharedMemBytes:  96 << 10,
		L1Bytes:         48 << 10,
		L1Ways:          8,
		ALULat:          4,
		SFULat:          16,
		ShmemLat:        24,
		LongStall:       250,
		SwitchDrainLat:  30,
	}
}

// WarpRegBytes is the size of one warp-register (32 lanes × 4 bytes) — the
// PCRF entry granularity.
const WarpRegBytes = 128

// Limits returns the per-SM occupancy limits a kernel is classified and
// admitted against.
func (c *Config) Limits() kernels.Limits {
	return kernels.Limits{
		MaxCTAs:        c.MaxCTAs,
		MaxWarps:       c.MaxWarps,
		MaxThreads:     c.MaxThreads,
		RegFileBytes:   c.RegFileBytes,
		SharedMemBytes: c.SharedMemBytes,
	}
}

// TotalWarpRegs returns the register file capacity in warp-registers.
func (c *Config) TotalWarpRegs() int { return c.RegFileBytes / WarpRegBytes }

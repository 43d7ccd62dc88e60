package sm

import (
	"fmt"
	"math"
	"math/bits"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/trace"
)

// CTAState tracks where a resident CTA's execution context currently is.
type CTAState uint8

const (
	// CTAActive: warps are in the pipeline, registers in the (AC)RF.
	CTAActive CTAState = iota
	// CTAPendingRF: context parked, registers still resident in the RF
	// (Virtual Thread style).
	CTAPendingRF
	// CTAPendingPCRF: context parked, live registers compacted into the
	// PCRF (FineReg).
	CTAPendingPCRF
	// CTAPendingDRAM: context parked, registers spilled to off-chip DRAM
	// (Reg+DRAM / Zorua style).
	CTAPendingDRAM
	// CTAFinished: all warps exited.
	CTAFinished
)

// IsPending reports whether the CTA is resident but not executing.
func (s CTAState) IsPending() bool {
	return s == CTAPendingRF || s == CTAPendingPCRF || s == CTAPendingDRAM
}

// CTA is one resident cooperative thread array on an SM.
type CTA struct {
	// ID is the global CTA index within the grid (drives address streams).
	ID int
	// State is maintained by the SM/policy machinery.
	State CTAState
	// Warps are the CTA's warp contexts (fixed at launch).
	Warps []*Warp

	// RegCost is the full static allocation in warp-registers
	// (regs/thread × warps).
	RegCost int
	// LiveRegs is the live warp-register total captured at the last
	// eviction decision (Σ per-warp live counts).
	LiveRegs int

	// ReadyAt is the earliest cycle any warp of a pending CTA could issue.
	ReadyAt int64

	finishedWarps int
	stalledWarps  int
	barWaiting    int
	launchStamp   int64

	firstIssueAt int64 // -1 until first instruction issues
	firstStallAt int64 // -1 until first complete stall

	// policyData lets the active policy hang bookkeeping off the CTA
	// (e.g. FineReg's PCRF chain head).
	policyData any
}

// FullyStalled reports whether every non-exited warp is long-blocked.
func (c *CTA) FullyStalled() bool {
	return c.State == CTAActive &&
		c.finishedWarps < len(c.Warps) &&
		c.stalledWarps+c.finishedWarps == len(c.Warps)
}

// EarliestWake returns the soonest scoreboard wake time among non-exited
// warps — the CTA's best-case resume time if it were parked now.
func (c *CTA) EarliestWake() int64 {
	best := int64(-1)
	for _, w := range c.Warps {
		if w.exited {
			continue
		}
		if best < 0 || w.wakeAt < best {
			best = w.wakeAt
		}
	}
	return best
}

// Finished reports whether all warps exited.
func (c *CTA) Finished() bool { return c.finishedWarps == len(c.Warps) }

// DebugWarps renders per-warp scheduler state for deadlock diagnostics.
func (c *CTA) DebugWarps() string {
	out := ""
	for _, w := range c.Warps {
		out += fmt.Sprintf("[w%d pc=%d asleep=%v bar=%v long=%v exited=%v wake=%d] ",
			w.Idx, w.PC, w.asleep, w.atBarrier, w.longBlocked, w.exited, w.wakeAt)
	}
	return out
}

// SetPolicyData attaches policy-private state to the CTA.
func (c *CTA) SetPolicyData(v any) { c.policyData = v }

// PolicyData returns the policy-private state.
func (c *CTA) PolicyData() any { return c.policyData }

// Warp is one warp's timing context. The fields issueReady tests on every
// scheduler scan (wake time, busy mask, PC, the state flags, the CTA) lead
// the struct so a rejected warp costs one cache line.
type Warp struct {
	wakeAt int64
	// busy has bit r set for every register whose regReady may still lie in
	// the future: issue sets the bit with the write, depReadyAt clears it
	// once the time has passed. busy ⊇ {r : regReady[r] > now} always holds
	// (the auditor checks it), so a clear bit proves a register ready
	// without loading regReady.
	busy uint64
	// PC is the next instruction to issue.
	PC          int
	asleep      bool
	longBlocked bool
	atBarrier   bool
	exited      bool
	// CTA is the warp's CTA; nil once the context has retired into the SM's
	// pool.
	CTA *CTA
	// policy is the active policy's private per-warp word (RegMutex's SRP
	// grant), the per-warp twin of CTA.policyData.
	policy int

	// Idx is the warp's index within its CTA.
	Idx int
	// UID is globally unique (drives memory address streams).
	UID uint64
	// Age is the launch stamp used by GTO's "oldest" order.
	Age int64

	// regReady[r] is the absolute cycle register r's value arrives at, as
	// int32 to halve the struct: setReady saturates at math.MaxInt32, and
	// the run loop stops before that cycle (gpu.Config.MaxCycles), so a
	// saturated entry only ever reads as pending.
	regReady [isa.MaxRegs]int32

	// loopRemain holds the remaining trip count per loop slot.
	loopRemain []int32
	// divergeRet is a small stack of pending else-path PCs for forward
	// divergent branches.
	divergeRet []int

	// schedSeq is the warp's wiring sequence within its scheduler,
	// assigned by enterActive; scheduler lists stay sorted by it, and LRR
	// anchors its rotation on the last-issued warp's sequence. schedID is
	// the scheduler the warp is currently wired to and schedPos its index in
	// that scheduler's list — the bit that stands for it in the ready mask.
	schedSeq int64
	schedID  int
	schedPos int

	memCounter uint64

	// touched accumulates registers referenced in the current Figure 5
	// instrumentation window.
	touched liveness.BitVec

	// memWritten is a bitmask over registers (MaxRegs = 64) marking those
	// last written by a global memory load. Maintained only while a trace
	// sink is attached; used to attribute scoreboard blocks to memory vs
	// compute dependencies.
	memWritten uint64
}

// blockReason classifies a scoreboard block at issue time: if the register
// that gates the instruction (the one with the latest ready time) was last
// written by a global load, the warp is memory-bound; otherwise it waits on
// a compute dependency.
func (w *Warp) blockReason(in *isa.Instr) trace.StallReason {
	ready := int32(0)
	gate := isa.RegNone
	consider := func(r isa.Reg) {
		if r.Valid() && w.regReady[r] > ready {
			ready = w.regReady[r]
			gate = r
		}
	}
	for _, r := range in.Srcs[:in.NSrc] {
		consider(r)
	}
	consider(in.Pred)
	consider(in.Dst)
	if gate.Valid() && w.memWritten&(1<<uint(gate)) != 0 {
		return trace.ReasonMemory
	}
	return trace.ReasonScoreboard
}

// SetPolicyWord stores the policy's private per-warp integer. It starts at
// zero in every launched CTA's warps; a policy that needs more than one
// integer per warp keeps an index here.
func (w *Warp) SetPolicyWord(v int) { w.policy = v }

// PolicyWord returns the policy's private per-warp integer.
func (w *Warp) PolicyWord() int { return w.policy }

// Exited reports whether the warp hit EXIT.
func (w *Warp) Exited() bool { return w.exited }

// WakeAt returns the warp's scoreboard wake time.
func (w *Warp) WakeAt() int64 { return w.wakeAt }

// LiveAt returns the warp's current live-register count according to the
// kernel's liveness table (0 once exited). This is the per-warp PCRF
// demand when the warp's CTA is evicted.
func (w *Warp) LiveAt(info *liveness.Info) int {
	if w.exited {
		return 0
	}
	return info.LiveCount(w.PC)
}

// issueKind is what issuing an instruction does beyond the register-file
// accounting every instruction shares.
type issueKind uint8

const (
	kindFixed   issueKind = iota // ALU/SFU: destination ready after a fixed latency
	kindShared                   // shared memory: fixed latency, counted
	kindGlobal                   // global memory: latency from the hierarchy
	kindBarrier                  // CTA-wide barrier
	kindExit                     // warp exit
	kindBranch                   // control transfer
)

// issueRow is one instruction decoded for the issue path: everything
// issueReady and issue need, so neither touches the isa.Instr.
type issueRow struct {
	// depMask has a bit per register the instruction must wait for (RAW on
	// sources and predicate, WAW on the destination).
	depMask uint64
	// lat is the fixed result latency (kindFixed, kindShared), resolved
	// from the sm.Config the table was built for.
	lat int64
	// in is the instruction itself, for the cold users: branches, the
	// global-memory descriptor, usage tracking, stall attribution.
	in *isa.Instr
	// loop is a backward branch's loop-counter slot, -1 otherwise.
	loop  int32
	dst   isa.Reg // RegNone when the instruction defines no register
	nsrc  uint8
	kind  issueKind
	store bool // global store: consumes bandwidth, never blocks the warp
}

// ProgInfo is a program decoded for one latency triple: the per-PC issue
// table plus the liveness the policies ask about. Decode makes it once per
// program table entry and triple (kernels.Kernel.Decoded), and every SM of
// every run bound to that program shares it read-only.
type ProgInfo struct {
	prog *isa.Program
	live *liveness.Info
	rows []issueRow
	// loopTrip[slot] is the trip count a new warp's loop counter starts at.
	loopTrip []int32
	// aluLat, sfuLat and shmemLat are the latencies baked into rows.
	aluLat, sfuLat, shmemLat int64
}

// Decode returns kernel k's program decoded for SMs configured as cfg:
// the entry's shared table when the program table built k, else a fresh
// one.
func Decode(k *kernels.Kernel, cfg Config) *ProgInfo {
	lat := [3]int64{cfg.ALULat, cfg.SFULat, cfg.ShmemLat}
	return k.Decoded(lat, func() any { return decode(k, lat) }).(*ProgInfo)
}

func decode(k *kernels.Kernel, lat [3]int64) *ProgInfo {
	p := k.Prog
	m := &ProgInfo{
		prog:     p,
		live:     k.Live,
		rows:     make([]issueRow, p.Len()),
		aluLat:   lat[0],
		sfuLat:   lat[1],
		shmemLat: lat[2],
	}
	for pc := range m.rows {
		in := p.At(pc)
		row := &m.rows[pc]
		*row = issueRow{in: in, loop: -1, dst: isa.RegNone, nsrc: in.NSrc}
		if in.Dst.Valid() {
			row.dst = in.Dst
			row.depMask = 1 << in.Dst
		}
		in.Reads(func(r isa.Reg) { row.depMask |= 1 << r })
		switch isa.ClassOf(in.Op) {
		case isa.ClassALU:
			row.lat = m.aluLat
		case isa.ClassSFU:
			row.lat = m.sfuLat
		case isa.ClassMemShared:
			row.kind, row.lat = kindShared, m.shmemLat
		case isa.ClassMemGlobal:
			row.kind, row.store = kindGlobal, !in.IsLoad()
		case isa.ClassSync:
			row.kind = kindBarrier
		case isa.ClassControl:
			row.kind = kindBranch
			if in.Op == isa.OpEXIT {
				row.kind = kindExit
			} else if in.IsBackward(pc) {
				row.loop = int32(len(m.loopTrip))
				m.loopTrip = append(m.loopTrip, int32(in.Trip))
			}
		}
	}
	return m
}

// newWarp creates a warp context at PC 0 with loop counters armed.
func (m *ProgInfo) newWarp(c *CTA, idx int, uid uint64, age int64) *Warp {
	w := &Warp{CTA: c, Idx: idx, UID: uid, Age: age}
	// make, not slices.Clone: append-based cloning rounds the capacity up to
	// a size class, which reads as +0.2 % alloc_kb_per_kcycle.
	w.loopRemain = make([]int32, len(m.loopTrip))
	copy(w.loopRemain, m.loopTrip)
	return w
}

// rearm turns a retired context into what newWarp would have returned:
// everything is zeroed — the scoreboard with its busy mask, the policy
// word — and only the loop counters' backing store is kept.
func (m *ProgInfo) rearm(w *Warp, c *CTA, idx int, uid uint64, age int64) {
	loops := w.loopRemain[:0]
	*w = Warp{CTA: c, Idx: idx, UID: uid, Age: age}
	w.loopRemain = append(loops, m.loopTrip...)
}

// setReady records that register r's value arrives at cycle at (saturated
// at math.MaxInt32, a cycle no run reaches).
func (w *Warp) setReady(r isa.Reg, at int64) {
	w.regReady[r] = int32(min(at, math.MaxInt32))
	w.busy |= 1 << r
}

// depReadyAt returns the cycle at which the registers in deps (an
// issueRow.depMask) resolve when that is later than now, and 0 when the
// instruction can issue. Only registers still in busy can be pending;
// those found resolved leave the mask.
func (w *Warp) depReadyAt(deps uint64, now int64) int64 {
	until := int64(0)
	for m := w.busy & deps; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		if t := int64(w.regReady[r]); t > now {
			until = max(until, t)
		} else {
			w.busy &^= 1 << r
		}
	}
	return until
}

// advanceBranch computes the next PC after executing the branch (row) at
// the warp's PC.
//
// Control-flow contract of the timing model (matching the kernel
// generators):
//   - backward conditional branch: loop edge, taken Trip-1 times per entry;
//   - forward conditional branch with Diverge: both paths execute — fall
//     through now, remember the target; the next unconditional forward
//     branch (the join jump) diverts to it;
//   - forward conditional branch without Diverge: not taken;
//   - unconditional forward branch: taken (or diverted, see above).
func (w *Warp) advanceBranch(row *issueRow) int {
	pc, in := w.PC, row.in
	if slot := row.loop; slot >= 0 {
		w.loopRemain[slot]--
		if w.loopRemain[slot] > 0 {
			return in.Target
		}
		w.loopRemain[slot] = int32(in.Trip) // re-arm for outer re-entry
		return pc + 1
	}
	if in.IsConditional() {
		if in.Diverge {
			w.divergeRet = append(w.divergeRet, in.Target)
		}
		return pc + 1
	}
	// Unconditional forward branch: divert to a pending diverged path if
	// one exists (PDOM-style serialization), else jump.
	if n := len(w.divergeRet); n > 0 {
		t := w.divergeRet[n-1]
		w.divergeRet = w.divergeRet[:n-1]
		return t
	}
	return in.Target
}

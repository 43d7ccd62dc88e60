package core

import (
	"fmt"

	"finereg/internal/mem"
	"finereg/internal/sm"
	"finereg/internal/trace"
)

// ctaInfo is the FineReg policy's per-CTA bookkeeping: its status-monitor
// slot and, while pending, the head of its PCRF chain.
type ctaInfo struct {
	slot int
	head int
}

// FineReg is the paper's register-file management policy. The monolithic
// register file is split into the ACRF (active CTAs, full allocations) and
// the PCRF (pending CTAs, live registers only). When all warps of an
// active CTA stall, its live registers — identified by the compiler's
// liveness bit vectors, fetched through the RMU's bit-vector cache — are
// chained into the PCRF and the freed ACRF slot admits a new or resuming
// CTA. When the PCRF cannot hold the live set, FineReg degrades to pure
// ACRF↔PCRF context switching, and failing that leaves the CTA stalled
// (the Figure 14 depletion case).
type FineReg struct {
	cfg  sm.Config
	hier *mem.Hierarchy

	// ACRFBytes and PCRFBytes partition the register file; they must sum
	// to cfg.RegFileBytes (the paper's default splits 256 KB into
	// 128 KB + 128 KB).
	ACRFBytes, PCRFBytes int

	// CompactLive selects live-register-only storage in the PCRF (the
	// FineReg contribution). Disabling it stores full register sets — the
	// ablation that isolates the compaction benefit.
	CompactLive bool

	acrf sm.Ledger
	pcrf *PCRF
	rmu  *RMU
	mon  *StatusMonitor

	slotFree     []int
	blocked      bool
	blockedSince int64

	// launchHoldUntil pauses fresh CTA launches after a PCRF depletion
	// event: the free-space monitor (Figure 11) has just signalled
	// overflow, so admitting another CTA — whose own eventual eviction
	// needs the same space — would only deepen the block. Swaps with
	// already-pending CTAs stay allowed (they free as much as they take).
	launchHoldUntil int64

	// DepletionEvents counts switch attempts rejected for lack of PCRF
	// space (Figure 14 diagnostics).
	DepletionEvents int64

	// pcBuf is bitvecDelay's reusable scratch, for the stall PCs.
	pcBuf []int
}

// NewFineReg builds the policy with the given ACRF/PCRF split. It panics
// if the split does not cover the configured register file — a static
// misconfiguration.
func NewFineReg(cfg sm.Config, hier *mem.Hierarchy, acrfBytes, pcrfBytes int) *FineReg {
	if acrfBytes+pcrfBytes != cfg.RegFileBytes {
		panic(fmt.Sprintf("core: ACRF %d + PCRF %d != register file %d bytes",
			acrfBytes, pcrfBytes, cfg.RegFileBytes))
	}
	pcrf, err := NewPCRF(pcrfBytes / sm.WarpRegBytes)
	if err != nil {
		panic(err)
	}
	return &FineReg{
		cfg:         cfg,
		hier:        hier,
		ACRFBytes:   acrfBytes,
		PCRFBytes:   pcrfBytes,
		CompactLive: true,
		pcrf:        pcrf,
		rmu:         NewRMU(hier),
		mon:         &StatusMonitor{},
	}
}

// Name implements sm.Policy.
func (f *FineReg) Name() string { return "FineReg" }

// RMUState exposes the RMU (the bit-vector cache ablation resets it).
func (f *FineReg) RMUState() *RMU { return f.rmu }

// ACRF exposes the ACRF ledger (tests).
func (f *FineReg) ACRF() *sm.Ledger { return &f.acrf }

// KernelStart implements sm.Policy.
func (f *FineReg) KernelStart(s *sm.SM, now int64) {
	f.acrf.Reset(f.ACRFBytes / sm.WarpRegBytes)
	f.pcrf.Reset()
	f.rmu.Reset()
	f.mon.Reset()
	f.blocked = false
	f.launchHoldUntil = 0
	if f.slotFree == nil {
		f.slotFree = make([]int, 0, MonitorSlots) // one allocation, not append's doubling chain
	}
	f.slotFree = f.slotFree[:0]
	for i := MonitorSlots - 1; i >= 0; i-- {
		f.slotFree = append(f.slotFree, i)
	}
}

// FillSlots restores ready pending CTAs and launches new ones while the
// ACRF and scheduling resources allow.
func (f *FineReg) FillSlots(s *sm.SM, now int64) {
	cost := s.RegCostPerCTA()
	for s.CanActivateOne(false) && f.acrf.Free() >= cost {
		if c := s.ReadyPending(sm.CTAPendingPCRF, now); c != nil {
			f.restore(s, c, now)
			continue
		}
		if len(f.slotFree) == 0 {
			return
		}
		c := s.LaunchNew(now, 0)
		if c == nil {
			return
		}
		f.adopt(s, c)
	}
}

// adopt initializes policy bookkeeping for a newly launched active CTA; the
// caller checked that a monitor slot is free.
func (f *FineReg) adopt(s *sm.SM, c *sm.CTA) {
	s.Cnt.ACRFLaunches++
	f.acrf.Take(c.RegCost)
	last := len(f.slotFree) - 1
	info := &ctaInfo{slot: f.slotFree[last], head: -1}
	f.slotFree = f.slotFree[:last]
	c.SetPolicyData(info)
	f.mon.Set(info.slot, CtxPipeline, RegACRF)
}

// OnCTAStalled attempts a FineReg switch for the fully stalled CTA c: it
// evicts c's live registers to the PCRF and activates a replacement (a ready
// pending CTA, else a fresh launch), implementing the Section V-E procedure
// including the free-entry arithmetic that counts slots released by the
// outgoing pending CTA.
func (f *FineReg) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	in := s.ReadyPending(sm.CTAPendingPCRF, now)
	if in == nil && !(s.Disp.Remaining() > 0 && s.CanParkResident() && len(f.slotFree) > 0) {
		return
	}
	live := f.evictDemand(s, c)
	space := f.pcrf.Free()
	if in != nil {
		space += in.LiveRegs // its chain, freed by the swap
	} else {
		// Free-space-monitor admission control (Figure 11): a fresh
		// launch grows the CTA population for good, so the monitor holds
		// back when the file is near overflow. Sub-granule live sets
		// imply a large CTA population whose eviction bursts fill the
		// file faster than the coarse occupancy count reacts, so those
		// launches must leave a granule of slack beyond the eviction at
		// hand; a chain of a granule or more is individually visible to
		// the monitor and is admitted exactly, with the post-overflow
		// hold below as the backstop. Swaps are always exempt: they free
		// as many entries as they consume.
		granule := f.pcrf.Entries() / 16
		if now < f.launchHoldUntil || (live < granule && space-live < granule) {
			return
		}
	}
	if live > space {
		// Section V-B: the stalled CTA must remain in the ACRF until the
		// PCRF drains — the register-depletion stall of Figure 14.
		if !f.blocked {
			f.blocked = true
			f.blockedSince = now
		}
		f.DepletionEvents++
		// Overflow means the CTA population has outgrown the PCRF; hold
		// fresh launches for one memory round-trip so pending chains can
		// drain back out instead of piling more CTAs onto a full file.
		f.launchHoldUntil = now + f.hier.DRAM.LatencyCycles
		return
	}
	restored := 0
	if in != nil {
		restored = f.releaseChain(s, in)
	}
	// The status monitor initiates the bit-vector lookups the moment it
	// detects the full stall (Section V-B), so an RMU miss fetch proceeds
	// while the outgoing CTA's pipeline drains: the register readout is
	// gated on the slower of the two, not their sum.
	drain := max(f.bitvecDelay(s, c, now), f.cfg.SwitchDrainLat)
	f.evictStore(s, c, now, live)
	if in != nil {
		// Restore and eviction then stream through the arbitrator
		// concurrently (Section V-E); warps of the incoming CTA become
		// eligible as soon as their own live registers have been read
		// back, so the visible delay is one warp's worth of chain.
		f.resume(s, in, now, restored, drain+restoreLat(restored, s.WarpsPerCTA()))
	} else if nc := s.LaunchNew(now, drain+restoreLat(c.LiveRegs, s.WarpsPerCTA())); nc != nil {
		// The fresh CTA's registers are zero-initialized into ACRF banks as
		// the outgoing chain streams to the PCRF, so — as in the swap path —
		// the first incoming warp waits one warp's share of the pipelined
		// eviction, not the whole chain.
		f.adopt(s, nc)
	}
	f.clearBlocked(s, now)
}

// clearBlocked closes a PCRF-depletion window, accounting its cycles.
func (f *FineReg) clearBlocked(s *sm.SM, now int64) {
	if f.blocked {
		s.Cnt.DepletionCycles += now - f.blockedSince
		f.blocked = false
	}
}

// evictDemand returns the PCRF entries CTA c needs: its live registers
// when compaction is on, its full allocation otherwise.
func (f *FineReg) evictDemand(s *sm.SM, c *sm.CTA) int {
	if f.CompactLive {
		return s.Meta().LiveRegsOf(c)
	}
	return c.RegCost
}

// bitvecDelay probes the RMU's bit-vector cache for every distinct stall
// PC of c and returns the worst-case fetch delay.
func (f *FineReg) bitvecDelay(s *sm.SM, c *sm.CTA, now int64) int64 {
	var bvDelay int64
	missesBefore := f.rmu.Misses
	f.pcBuf = s.Meta().StallPCs(c, f.pcBuf)
	for _, pc := range f.pcBuf {
		if d := f.rmu.Lookup(pc, now); d > bvDelay {
			bvDelay = d
		}
	}
	if t := s.Trace(); t != nil {
		if fetched := int(f.rmu.Misses - missesBefore); fetched > 0 {
			t.Event(trace.Event{Kind: trace.RegTransfer, SM: s.ID, CTA: c.ID, Cycle: now,
				Xfer: trace.XferBitvec, Regs: int32(fetched), Bytes: int32(fetched * bitvecBytes)})
		}
	}
	return bvDelay
}

// restoreLat is the cycles until the first restored warp may issue: the
// PCRF tag access plus its share of the pipelined chain.
func restoreLat(chainLen, warps int) int64 {
	if chainLen <= 0 {
		return 0
	}
	if warps < 1 {
		warps = 1
	}
	return PCRFTagLat + int64((chainLen+warps-1)/warps)
}

// evictStore moves c's n (live) registers into the PCRF and parks the CTA
// (bit-vector lookups are accounted separately via bitvecDelay); n is
// evictDemand's count, which the caller checked against the free space.
func (f *FineReg) evictStore(s *sm.SM, c *sm.CTA, now int64, n int) {
	head, ok := f.pcrf.store(n)
	if !ok {
		panic("core: evictStore without sufficient PCRF space (caller must check)")
	}
	s.Cnt.PCRFWrites += int64(n)
	s.Cnt.RFReads += int64(n)
	s.Cnt.PCRFSpills++
	if t := s.Trace(); t != nil {
		t.Event(trace.Event{Kind: trace.RegTransfer, SM: s.ID, CTA: c.ID, Cycle: now,
			Xfer: trace.XferEvictToPCRF, Regs: int32(n), Bytes: int32(n * sm.WarpRegBytes)})
	}
	s.Deactivate(c, sm.CTAPendingPCRF, now)
	f.acrf.Give(c.RegCost)
	info := f.info(c)
	info.head, c.LiveRegs = head, n
	f.mon.Set(info.slot, CtxSharedMem, RegPCRF)
}

// restore reactivates a pending CTA, reading its chain back into the ACRF.
func (f *FineReg) restore(s *sm.SM, c *sm.CTA, now int64) {
	n := f.releaseChain(s, c)
	f.resume(s, c, now, n, restoreLat(n, s.WarpsPerCTA())+f.cfg.SwitchDrainLat)
}

// releaseChain reads pending CTA c's chain out of the PCRF, freeing its
// entries, and returns how many registers it held.
func (f *FineReg) releaseChain(s *sm.SM, c *sm.CTA) int {
	info := f.info(c)
	n := f.pcrf.ReleaseChainCount(info.head)
	s.Cnt.PCRFReads += int64(n)
	s.Cnt.RFWrites += int64(n)
	s.Cnt.PCRFFills++
	info.head = -1
	return n
}

// resume takes c's ACRF allocation back and reactivates it after lat cycles;
// restored is the chain length releaseChain returned for it.
func (f *FineReg) resume(s *sm.SM, c *sm.CTA, now int64, restored int, lat int64) {
	f.acrf.Take(c.RegCost)
	f.mon.Set(f.info(c).slot, CtxPipeline, RegACRF)
	s.Reactivate(c, now, lat)
	if t := s.Trace(); t != nil {
		t.Event(trace.Event{Kind: trace.RegTransfer, SM: s.ID, CTA: c.ID, Cycle: now,
			Xfer: trace.XferRestoreFromPCRF, Regs: int32(restored), Bytes: int32(restored * sm.WarpRegBytes)})
	}
}

// OnCTAReady resumes the CTA directly when the ACRF has room, or swaps it
// with a fully stalled active CTA.
func (f *FineReg) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	if c.State != sm.CTAPendingPCRF {
		return
	}
	if s.CanActivateOne(false) && f.acrf.Free() >= c.RegCost {
		f.restore(s, c, now)
		f.clearBlocked(s, now)
	} else if victim := s.StalledActive(); victim != nil {
		f.OnCTAStalled(s, victim, now)
	}
}

// OnCTAFinished releases the CTA's ACRF allocation and monitor slot.
func (f *FineReg) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	f.acrf.Give(c.RegCost)
	slot := f.info(c).slot
	f.mon.Set(slot, CtxNotLaunched, RegNotLaunched)
	f.slotFree = append(f.slotFree, slot)
	f.clearBlocked(s, now)
}

// BlockedOnRegisters implements sm.Policy (Figure 14b accounting).
func (f *FineReg) BlockedOnRegisters() bool { return f.blocked }

func (f *FineReg) info(c *sm.CTA) *ctaInfo {
	info, ok := c.PolicyData().(*ctaInfo)
	if !ok {
		panic("core: CTA without FineReg bookkeeping")
	}
	return info
}

// AuditAccounting implements sm.SelfAuditing. The PCRF ground truth is the
// sum of the pending CTAs' chain lengths as each CTA recorded it at eviction
// (LiveRegs, which the swap arithmetic reads), so a chain leaked, released
// twice, or stored or released behind the policy's back shows up as a
// free-count mismatch. The status monitor is cross-checked against the CTA
// states by counting residents whose 2+2-bit encoding matches their
// sm.CTAState; for a pending CTA that is resume rank 1 (Section V-B:
// context and registers both backed up), the only rank the policy ever
// produces, which is why the oldest ready pending CTA is the best resume
// candidate.
func (f *FineReg) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	acrfHeld, chained, monOK := 0, 0, 0
	for _, c := range s.Residents() {
		info := f.info(c)
		switch c.State {
		case sm.CTAActive:
			acrfHeld += c.RegCost
			if f.mon.IsActive(info.slot) {
				monOK++
			}
		case sm.CTAPendingPCRF:
			chained += c.LiveRegs
			if f.mon.SwitchPriority(info.slot) == 1 {
				monOK++
			}
		}
	}
	return []sm.AuditAccount{
		f.acrf.Account("acrfFree", acrfHeld),
		{Name: "pcrfFree", Value: f.pcrf.Free(), Expected: f.pcrf.Entries() - chained,
			Min: 0, Max: f.pcrf.Entries()},
		{Name: "monitorSlotsFree", Value: len(f.slotFree), Expected: MonitorSlots - len(s.Residents()),
			Min: 0, Max: MonitorSlots},
		{Name: "monitorConsistent", Value: monOK, Expected: len(s.Residents()),
			Min: 0, Max: MonitorSlots},
	}
}

package regfile

import (
	"finereg/internal/mem"
	"finereg/internal/sm"
	"finereg/internal/trace"
)

// dramInfo is RegDRAM's per-CTA bookkeeping for off-chip pending CTAs.
type dramInfo struct {
	// prefetchDone is the cycle the inbound register DMA completes; zero
	// while the context still sits in DRAM un-fetched.
	prefetchDone int64
}

// RegDRAM implements the Reg+DRAM configuration (Zorua-like [39]): Virtual
// Thread's in-RF residency plus an off-chip pending pool. A stalled CTA
// with no in-RF replacement has its full register context DMA'd to DRAM
// (overlapped with execution — the cost is channel bandwidth, which is why
// the paper's Figure 15 measures this policy by its traffic) and a new CTA
// takes over its allocation. When an off-chip CTA's dependencies resolve,
// its context is prefetched back and it swaps with the next stalled active
// CTA. The in-RF half is the embedded VirtualThread's; what is written here
// is the off-chip tier.
type RegDRAM struct {
	VirtualThread

	dramUsed int
	nextDMA  int64
	// DRAMCap bounds the off-chip pending CTAs per SM (the paper tuned
	// this per application; experiments sweep it).
	DRAMCap int
}

// NewRegDRAM returns a Reg+DRAM policy with the given off-chip pool cap.
func NewRegDRAM(cfg sm.Config, hier *mem.Hierarchy, dramCap int) *RegDRAM {
	return &RegDRAM{VirtualThread: VirtualThread{cfg: cfg, hier: hier}, DRAMCap: max(dramCap, 0)}
}

// Name implements sm.Policy.
func (r *RegDRAM) Name() string { return "Reg+DRAM" }

// KernelStart implements sm.Policy.
func (r *RegDRAM) KernelStart(s *sm.SM, now int64) {
	r.VirtualThread.KernelStart(s, now)
	r.dramUsed = 0
	r.nextDMA = 0
}

// dmaAllowed paces context DMA: the engine runs only when the off-chip
// channel has slack and a minimum interval has passed since this SM's last
// context transfer. Without pacing, stall-rate context swapping saturates
// the channel and starves demand traffic — the degenerate behaviour the
// paper's Figure 15 analysis warns about. The slack test is size-aware:
// what must fit under the threshold is the channel's backlog plus this
// transfer's own service time, so a full 27 KB context is admitted under
// strictly less pre-existing backlog than a small one.
func (r *RegDRAM) dmaAllowed(bytes int, now int64) bool {
	if now < r.nextDMA {
		return false
	}
	service := float64(bytes) / r.hier.DRAM.BytesPerCycle
	return r.hier.DRAM.QueueDelay(now)+service <= float64(10*r.cfg.SwitchDrainLat)
}

// chargeDMA advances the pacing window after a context transfer.
func (r *RegDRAM) chargeDMA(bytes int, now int64) {
	service := int64(2 * float64(bytes) / r.hier.DRAM.BytesPerCycle)
	// Pace to a few percent of the per-SM channel share so context
	// traffic stays in the Figure 15 range instead of starving demand.
	r.nextDMA = now + 1200*service
}

func (r *RegDRAM) info(c *sm.CTA) *dramInfo {
	if d, ok := c.PolicyData().(*dramInfo); ok {
		return d
	}
	d := &dramInfo{}
	c.SetPolicyData(d)
	return d
}

// ctxBytes is the full register context size of one CTA.
func ctxBytes(c *sm.CTA) int { return c.RegCost * sm.WarpRegBytes }

// pagedIn reports whether an off-chip CTA's registers have been fetched
// back on-chip (its inbound DMA completed).
func (r *RegDRAM) pagedIn(c *sm.CTA, now int64) bool {
	d := r.info(c)
	return d.prefetchDone > 0 && now >= d.prefetchDone
}

// readyDRAM returns the oldest DRAM-pending CTA whose registers are
// prefetched and whose warps are ready, or nil.
func (r *RegDRAM) readyDRAM(s *sm.SM, now int64) *sm.CTA {
	for _, c := range s.Residents() {
		if c.State == sm.CTAPendingDRAM && c.ReadyAt <= now && r.pagedIn(c, now) {
			return c
		}
	}
	return nil
}

// pageIn activates a prefetched off-chip CTA: it leaves the pool and takes
// an allocation in the register file.
func (r *RegDRAM) pageIn(s *sm.SM, c *sm.CTA, now int64) {
	r.regs.Take(r.cost)
	r.dramUsed--
	r.info(c).prefetchDone = 0
	s.Reactivate(c, now, r.cfg.SwitchDrainLat)
}

// FillSlots behaves like Virtual Thread, additionally admitting prefetched
// off-chip CTAs — after the in-RF resumes, before fresh launches — when
// registers free up.
func (r *RegDRAM) FillSlots(s *sm.SM, now int64) {
	r.resume(s, now)
	for s.CanActivateOne(false) && r.regs.Free() >= r.cost {
		c := r.readyDRAM(s, now)
		if c == nil {
			break
		}
		r.pageIn(s, c, now)
	}
	r.launch(s, now)
}

// spillOut parks an active CTA's registers in DRAM; the outbound DMA is
// overlapped with execution and charged as context traffic.
func (r *RegDRAM) spillOut(s *sm.SM, c *sm.CTA, now int64) {
	s.Cnt.DMASpills++
	r.hier.TransferOverlapped(now, ctxBytes(c), mem.TrafficContext)
	r.chargeDMA(ctxBytes(c), now)
	if t := s.Trace(); t != nil {
		t.Event(trace.Event{Kind: trace.RegTransfer, SM: s.ID, CTA: c.ID, Cycle: now,
			Xfer: trace.XferSpillToDRAM, Regs: int32(c.RegCost), Bytes: int32(ctxBytes(c))})
	}
	s.Deactivate(c, sm.CTAPendingDRAM, now)
	r.info(c).prefetchDone = 0
	r.dramUsed++
	r.regs.Give(r.cost)
}

// worthSpilling applies the absence guard: the victim must be away longer
// than the round trip costs, or paging it out is a pure loss. Pacing is
// NOT applied here — bringing an already-prefetched CTA home must never
// be throttled, or it sits trapped off-chip on the critical path.
func (r *RegDRAM) worthSpilling(c *sm.CTA, now int64) bool {
	wake := c.EarliestWake()
	return wake < 0 || wake-now >= r.spillCost(ctxBytes(c), now)
}

// OnCTAStalled switches within the register file when possible; otherwise
// it spills the stalled CTA off-chip to admit a prefetched DRAM CTA or a
// fresh launch.
func (r *RegDRAM) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	// 1. Cheap in-RF swap (Virtual Thread behaviour, minus its launch guard).
	if r.switchOut(s, c, now, false) {
		return
	}

	// 2. Swap with a prefetched off-chip CTA: the victim pages out
	// (overlapped) and the incoming CTA takes over its allocation.
	if in := r.readyDRAM(s, now); in != nil && r.worthSpilling(c, now) {
		r.spillOut(s, c, now)
		r.pageIn(s, in, now)
		return
	}

	// 3. Spill to make room for a fresh CTA — only when the victim will be
	// away long enough to amortize the channel cost (including backlog),
	// which keeps spilling self-limiting under contention.
	if s.Disp.Remaining() > 0 && r.dramUsed < r.DRAMCap && s.CanParkResident() &&
		r.dmaAllowed(ctxBytes(c), now) && r.worthSpilling(c, now) {
		r.spillOut(s, c, now)
		if s.LaunchNew(now, r.cfg.SwitchDrainLat) != nil {
			r.regs.Take(r.cost)
		}
	}
}

// OnCTAReady fires twice for off-chip CTAs: once when the warps' data
// dependencies resolve (starting the inbound prefetch) and once when the
// prefetch DMA completes (attempting activation).
func (r *RegDRAM) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	if c.State != sm.CTAPendingDRAM {
		r.VirtualThread.OnCTAReady(s, c, now)
		return
	}
	d := r.info(c)
	if d.prefetchDone == 0 {
		// Prefetch is never paced: a CTA already off-chip must come home
		// as soon as it is runnable.
		s.Cnt.DMAPrefetches++
		d.prefetchDone = r.hier.TransferOverlapped(now, ctxBytes(c), mem.TrafficContext)
		if t := s.Trace(); t != nil {
			t.Event(trace.Event{Kind: trace.RegTransfer, SM: s.ID, CTA: c.ID, Cycle: now,
				Xfer: trace.XferPrefetchFromDRAM, Regs: int32(c.RegCost), Bytes: int32(ctxBytes(c))})
		}
		if d.prefetchDone > now {
			s.ScheduleEvent(d.prefetchDone, c)
			return
		}
		d.prefetchDone = now
	}
	if now < d.prefetchDone {
		return
	}
	if !(s.CanActivateOne(false) && r.regs.Free() >= r.cost) {
		victim := s.StalledActive()
		if victim == nil || !r.worthSpilling(victim, now) {
			return
		}
		r.spillOut(s, victim, now)
	}
	r.pageIn(s, c, now)
}

// spillCost estimates the channel cycles a register round trip costs right
// now: both transfers plus the current backlog and pipeline drains.
func (r *RegDRAM) spillCost(bytes int, now int64) int64 {
	return int64(float64(2*bytes)/r.hier.DRAM.BytesPerCycle+r.hier.DRAM.QueueDelay(now)) +
		2*r.cfg.SwitchDrainLat
}

// AuditAccounting implements sm.SelfAuditing: active and in-RF pending CTAs
// hold their full allocation; DRAM-pending CTAs hold none but occupy the
// bounded off-chip pool.
func (r *RegDRAM) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	offChip := 0
	for _, c := range s.Residents() {
		if c.State == sm.CTAPendingDRAM {
			offChip++
		}
	}
	return []sm.AuditAccount{
		r.regs.Account("regsFree", s.RegsHeld()-offChip*r.cost),
		{Name: "dramUsed", Value: r.dramUsed, Expected: offChip, Min: 0, Max: r.DRAMCap},
	}
}

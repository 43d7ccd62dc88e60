package regfile

import (
	"finereg/internal/mem"
	"finereg/internal/sm"
)

// launchSaturated reports whether the off-chip channel is so backlogged
// that launching an additional (cold) CTA would only lengthen everyone's
// queues: on a bandwidth-bound phase, extra TLP cannot help, so switching
// policies keep swapping ready work but stop admitting new CTAs.
func launchSaturated(hier *mem.Hierarchy, cfg *sm.Config, now int64) bool {
	return hier.DRAM.QueueDelay(now) > float64(20*cfg.SwitchDrainLat)
}

// VirtualThread implements the Virtual Thread policy [45]: CTAs keep being
// launched until the register file (or shared memory) is full — beyond the
// scheduling limit — and stalled active CTAs are context-switched with
// ready pending ones. Pending CTAs keep their full register allocation in
// the register file; only the pipeline context moves (to shared memory),
// so a switch costs just the drain/refill latency.
type VirtualThread struct {
	cfg      sm.Config
	hier     *mem.Hierarchy
	regsFree int
}

// NewVirtualThread returns a Virtual Thread policy.
func NewVirtualThread(cfg sm.Config, hier *mem.Hierarchy) *VirtualThread {
	return &VirtualThread{cfg: cfg, hier: hier}
}

// Name implements sm.Policy.
func (v *VirtualThread) Name() string { return "VT" }

// KernelStart implements sm.Policy.
func (v *VirtualThread) KernelStart(s *sm.SM, now int64) {
	v.regsFree = v.cfg.TotalWarpRegs()
}

// FillSlots activates ready pending CTAs first (their registers are
// already resident) and then launches new CTAs while the register file has
// space.
func (v *VirtualThread) FillSlots(s *sm.SM, now int64) {
	cost := s.Meta().RegCostPerCTA()
	for s.CanActivateOne(false) {
		if c := readyPending(s, sm.CTAPendingRF, now); c != nil {
			s.Reactivate(c, now, v.cfg.SwitchDrainLat)
			continue
		}
		if !s.CanActivateOne(true) || v.regsFree < cost {
			return
		}
		if s.LaunchNew(now, 0) == nil {
			return
		}
		v.regsFree -= cost
	}
}

// OnCTAStalled evicts the stalled CTA (registers stay in the RF) whenever
// a replacement exists: a ready pending CTA, or an unlaunched CTA that
// still fits in the register file.
func (v *VirtualThread) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	cost := s.Meta().RegCostPerCTA()
	in := readyPending(s, sm.CTAPendingRF, now)
	canLaunch := s.Disp.Remaining() > 0 && v.regsFree >= cost && s.CanParkResident() &&
		!launchSaturated(v.hier, &v.cfg, now)
	if in == nil && !canLaunch {
		return
	}
	s.Deactivate(c, sm.CTAPendingRF, now)
	if in != nil {
		s.Reactivate(in, now, v.cfg.SwitchDrainLat)
		return
	}
	if s.LaunchNew(now, v.cfg.SwitchDrainLat) != nil {
		v.regsFree -= cost
	}
}

// OnCTAReady swaps the newly ready pending CTA in if an active CTA is
// sitting fully stalled.
func (v *VirtualThread) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	if s.CanActivateOne(false) {
		s.Reactivate(c, now, v.cfg.SwitchDrainLat)
		return
	}
	if victim := stalledActive(s); victim != nil {
		s.Deactivate(victim, sm.CTAPendingRF, now)
		s.Reactivate(c, now, v.cfg.SwitchDrainLat)
	}
}

// OnCTAFinished releases the CTA's register allocation.
func (v *VirtualThread) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	v.regsFree += c.RegCost
}

// BlockedOnRegisters implements sm.Policy.
func (v *VirtualThread) BlockedOnRegisters() bool { return false }

// RegsFree exposes remaining register capacity for tests.
func (v *VirtualThread) RegsFree() int { return v.regsFree }

// AuditAccounting implements sm.SelfAuditing: active and pending residents
// alike keep their full allocation in the register file (parking moves only
// the pipeline context).
func (v *VirtualThread) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	total := v.cfg.TotalWarpRegs()
	held := 0
	for _, c := range s.Residents() {
		held += c.RegCost
	}
	return []sm.AuditAccount{
		{Name: "regsFree", Value: v.regsFree, Expected: total - held, Min: 0, Max: total},
	}
}

// readyPending returns the oldest pending CTA in the given state whose
// dependencies have resolved, or nil.
func readyPending(s *sm.SM, st sm.CTAState, now int64) *sm.CTA {
	var best *sm.CTA
	for _, c := range s.Residents() {
		if c.State == st && c.ReadyAt <= now {
			if best == nil || c.ID < best.ID {
				best = c
			}
		}
	}
	return best
}

// stalledActive returns a fully stalled active CTA, preferring the one
// that has been stalled the longest (lowest ID as tiebreak).
func stalledActive(s *sm.SM) *sm.CTA {
	var best *sm.CTA
	for _, c := range s.Residents() {
		if c.State == sm.CTAActive && c.FullyStalled() {
			if best == nil || c.ID < best.ID {
				best = c
			}
		}
	}
	return best
}

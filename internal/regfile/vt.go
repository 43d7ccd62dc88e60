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
//
// Reg+DRAM and VT+RegMutex are this policy plus something, and embed it: the
// switch below is the only one, run over whatever partition (regs) and
// per-CTA charge (cost) the embedding policy's KernelStart sets.
type VirtualThread struct {
	cfg  sm.Config
	hier *mem.Hierarchy
	regs sm.Ledger
	cost int
}

// NewVirtualThread returns a Virtual Thread policy.
func NewVirtualThread(cfg sm.Config, hier *mem.Hierarchy) *VirtualThread {
	return &VirtualThread{cfg: cfg, hier: hier}
}

// Name implements sm.Policy.
func (v *VirtualThread) Name() string { return "VT" }

// KernelStart charges CTAs their full allocation against the whole file.
func (v *VirtualThread) KernelStart(s *sm.SM, now int64) {
	v.regs.Reset(v.cfg.TotalWarpRegs())
	v.cost = s.RegCostPerCTA()
}

// FillSlots activates ready pending CTAs first (their registers are
// already resident) and then launches new CTAs while the partition has
// space.
func (v *VirtualThread) FillSlots(s *sm.SM, now int64) {
	v.resume(s, now)
	v.launch(s, now)
}

// resume activates ready pending CTAs, oldest first, while slots allow.
func (v *VirtualThread) resume(s *sm.SM, now int64) {
	for s.CanActivateOne(false) {
		c := s.ReadyPending(sm.CTAPendingRF, now)
		if c == nil {
			return
		}
		s.Reactivate(c, now, v.cfg.SwitchDrainLat)
	}
}

// launch admits fresh CTAs while the partition has room for their charge.
func (v *VirtualThread) launch(s *sm.SM, now int64) {
	for v.regs.Free() >= v.cost && s.LaunchNew(now, 0) != nil {
		v.regs.Take(v.cost)
	}
}

// OnCTAStalled implements sm.Policy.
func (v *VirtualThread) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	v.switchOut(s, c, now, true)
}

// switchOut evicts the stalled CTA c (registers stay in the RF) whenever a
// replacement exists — a ready pending CTA, or an unlaunched CTA that still
// fits in the partition — and reports whether it did. guarded is the one
// thing the policies built on this switch disagree on: Virtual Thread and
// VT+RegMutex refuse the fresh launch while the channel is launchSaturated,
// Reg+DRAM's in-RF step does not.
func (v *VirtualThread) switchOut(s *sm.SM, c *sm.CTA, now int64, guarded bool) bool {
	in := s.ReadyPending(sm.CTAPendingRF, now)
	if in == nil && !(s.Disp.Remaining() > 0 && v.regs.Free() >= v.cost && s.CanParkResident() &&
		!(guarded && launchSaturated(v.hier, &v.cfg, now))) {
		return false
	}
	s.Deactivate(c, sm.CTAPendingRF, now)
	if in != nil {
		s.Reactivate(in, now, v.cfg.SwitchDrainLat)
	} else if s.LaunchNew(now, v.cfg.SwitchDrainLat) != nil {
		v.regs.Take(v.cost)
	}
	return true
}

// OnCTAReady resumes the newly ready pending CTA, swapping out an active
// CTA that is sitting fully stalled when no scheduling slot is free.
func (v *VirtualThread) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	if !s.CanActivateOne(false) {
		victim := s.StalledActive()
		if victim == nil {
			return
		}
		s.Deactivate(victim, sm.CTAPendingRF, now)
	}
	s.Reactivate(c, now, v.cfg.SwitchDrainLat)
}

// OnCTAFinished releases the CTA's charge.
func (v *VirtualThread) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	v.regs.Give(v.cost)
}

// BlockedOnRegisters implements sm.Policy.
func (v *VirtualThread) BlockedOnRegisters() bool { return false }

// Regs exposes the partition's ledger (tests).
func (v *VirtualThread) Regs() *sm.Ledger { return &v.regs }

// AuditAccounting implements sm.SelfAuditing: active and pending residents
// alike keep their full allocation in the register file (parking moves only
// the pipeline context).
func (v *VirtualThread) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	return []sm.AuditAccount{v.regs.Account("regsFree", s.RegsHeld())}
}

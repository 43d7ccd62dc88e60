// Package regfile implements the register-file management policies FineReg
// is evaluated against (paper Section VI): the conventional Baseline,
// Virtual Thread [45], Reg+DRAM (Zorua-like [39]), and RegMutex [17]
// merged with Virtual Thread. The FineReg policy itself lives in
// internal/core.
//
// Each policy instance is attached to one SM and owns that SM's
// register-file accounting in warp-registers (128-byte units: one
// architectural register across a 32-lane warp).
package regfile

import (
	"finereg/internal/sm"
)

// Baseline is the conventional GPU: CTAs are launched while every resource
// (scheduling slots, register file, shared memory) has room, registers are
// allocated for a CTA's lifetime, and there is no CTA switching.
type Baseline struct {
	cfg  sm.Config
	regs sm.Ledger
}

// NewBaseline returns a Baseline policy for an SM with the given config.
func NewBaseline(cfg sm.Config) *Baseline { return &Baseline{cfg: cfg} }

// Name implements sm.Policy.
func (b *Baseline) Name() string { return "Baseline" }

// KernelStart implements sm.Policy.
func (b *Baseline) KernelStart(s *sm.SM, now int64) {
	b.regs.Reset(b.cfg.TotalWarpRegs())
}

// FillSlots launches CTAs until a scheduling resource or the register file
// is exhausted.
func (b *Baseline) FillSlots(s *sm.SM, now int64) {
	cost := s.RegCostPerCTA()
	for b.regs.Free() >= cost && s.LaunchNew(now, 0) != nil {
		b.regs.Take(cost)
	}
}

// OnCTAStalled implements sm.Policy; the baseline simply waits the stall
// out.
func (b *Baseline) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {}

// OnCTAReady implements sm.Policy (the baseline never has pending CTAs).
func (b *Baseline) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {}

// OnCTAFinished releases the CTA's registers.
func (b *Baseline) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	b.regs.Give(c.RegCost)
}

// BlockedOnRegisters implements sm.Policy.
func (b *Baseline) BlockedOnRegisters() bool { return false }

// Regs exposes the register-file ledger (tests).
func (b *Baseline) Regs() *sm.Ledger { return &b.regs }

// AuditAccounting implements sm.SelfAuditing: every resident CTA holds its
// full static allocation for its lifetime.
func (b *Baseline) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	return []sm.AuditAccount{b.regs.Account("regsFree", s.RegsHeld())}
}

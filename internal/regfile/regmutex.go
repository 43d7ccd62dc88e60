package regfile

import (
	"math"

	"finereg/internal/mem"
	"finereg/internal/sm"
)

// RegMutex implements the RegMutex policy [17] merged with Virtual Thread
// (the paper's "VT+RegMutex" configuration): the register file is split
// into per-warp base register sets (BRS) and a shared register pool (SRP).
// Each CTA statically allocates only its BRS, so more CTAs fit; when a
// warp's live register demand exceeds its BRS, it must hold an SRP grant
// to issue. Grants are not released while the warp is stalled on memory —
// the contention behaviour the paper measures in Figure 14. A warp's grant
// lives in its policy word (sm.Warp.PolicyWord).
//
// Residency and switching are the embedded VirtualThread's, run over the BRS
// partition with CTAs charged only their BRS.
type RegMutex struct {
	VirtualThread
	// SRPFrac is the fraction of the register file dedicated to the SRP.
	SRPFrac float64

	brsRegs int // BRS registers per thread
	// need[pc] is the SRP demand of a warp about to issue pc: the kernel's
	// sm.ProgInfo.HighPressure(pc, brsRegs), fixed once brsRegs is.
	need []uint8
	srp  sm.Ledger

	blocked      bool
	lastInstr    int64
	lastMove     int64
	lastDeniedAt int64
	// Overdrafts counts emergency SRP oversubscriptions used to break
	// allocation deadlock (rare; see AllowIssue).
	Overdrafts int64

	// DeniedIssues counts AllowIssue rejections (Figure 14 diagnostics).
	DeniedIssues int64
}

// NewRegMutex returns a VT+RegMutex policy with srpFrac of the register
// file as the shared pool.
func NewRegMutex(cfg sm.Config, hier *mem.Hierarchy, srpFrac float64) *RegMutex {
	srpFrac = min(max(srpFrac, 0), 0.9)
	return &RegMutex{VirtualThread: VirtualThread{cfg: cfg, hier: hier}, SRPFrac: srpFrac}
}

// Name implements sm.Policy.
func (r *RegMutex) Name() string { return "VT+RegMutex" }

// KernelStart sizes the BRS/SRP split for the bound kernel.
func (r *RegMutex) KernelStart(s *sm.SM, now int64) {
	total := r.cfg.TotalWarpRegs()
	r.srp.Reset(int(float64(total) * r.SRPFrac))
	// The BRS shrinks twice as fast as the SRP grows: carving srpFrac of
	// the file into the shared pool only pays off when per-warp static
	// allocations shrink by more than the pool takes, so extra CTAs fit.
	// (RegMutex's premise is that warps rarely need their full
	// allocation at once.)
	regs := s.Meta().RegsPerThread()
	r.brsRegs = int(math.Ceil(float64(regs) * (1 - 2*r.SRPFrac)))
	r.brsRegs = min(max(r.brsRegs, int(math.Ceil(float64(regs)/4))), regs)
	r.regs.Reset(total - r.srp.Capacity())
	r.cost = s.WarpsPerCTA() * r.brsRegs
	r.need = r.need[:0]
	for pc := 0; pc < s.Meta().Len(); pc++ {
		r.need = append(r.need, uint8(s.Meta().HighPressure(pc, r.brsRegs)))
	}
	r.blocked = false
	r.lastInstr, r.lastMove = -1, 0
	r.lastDeniedAt = -1
}

// OnCTAFinished releases the BRS allocation and all SRP grants the CTA's
// warps still hold. Until then they stay held, parked or not: a pending
// CTA's register values still occupy the shared pool. This is the contention
// the paper measures in Figure 14(b): "when the execution of a warp is
// stalled by long-latency memory instructions, it continues to occupy SRP
// and hinders other warps from scheduling". The emergency overdraft in
// AllowIssue bounds the resulting allocation deadlock.
func (r *RegMutex) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	r.VirtualThread.OnCTAFinished(s, c, now)
	for _, w := range c.Warps {
		r.srp.Give(w.PolicyWord())
		w.SetPolicyWord(0)
	}
	if r.srp.Free() > 0 {
		r.blocked = false
	}
}

// AllowIssue acquires or releases SRP registers so the warp holds exactly
// its live register demand above the BRS (in-flight values in high
// registers, plus the register the decoded instruction defines). A warp
// that cannot acquire its demand is denied issue; a warp that acquires and
// then stalls on memory keeps the grant — RegMutex does not release SRP on
// stalls, which is the Figure 14 contention.
func (r *RegMutex) AllowIssue(s *sm.SM, w *sm.Warp, now int64) bool {
	need := int(r.need[w.PC])
	if s.Cnt.Instructions != r.lastInstr {
		r.lastInstr, r.lastMove = s.Cnt.Instructions, now
	}
	grant := w.PolicyWord()
	switch {
	case need > grant:
		delta := need - grant
		if delta > r.srp.Free() {
			// Emergency overdraft: if the whole SM has made no progress
			// for a long window, SRP allocation has deadlocked (every
			// holder needs more than remains). Oversubscribe one warp to
			// guarantee forward progress; the debt repays on release.
			if now-r.lastMove > 2000 {
				r.Overdrafts++
				r.srp.Take(delta)
				w.SetPolicyWord(need)
				return true
			}
			r.blocked = true
			r.DeniedIssues++
			if now != r.lastDeniedAt {
				s.Cnt.DepletionCycles++
				r.lastDeniedAt = now
			}
			return false
		}
		r.srp.Take(delta)
		w.SetPolicyWord(need)
	case need < grant:
		r.srp.Give(grant - need)
		w.SetPolicyWord(need)
		r.blocked = false
	}
	return true
}

// BlockedOnRegisters reports SRP depletion with schedulable work.
func (r *RegMutex) BlockedOnRegisters() bool { return r.blocked }

// SRPInUse returns the currently granted SRP warp-registers (tests).
func (r *RegMutex) SRPInUse() int { return r.srp.Capacity() - r.srp.Free() }

// AuditAccounting implements sm.SelfAuditing. brsFree is checked against
// the resident count times the per-CTA BRS cost. srpFree is checked as the
// conservation identity capacity - Σ grants; its lower bound is widened to
// the total granted amount because the emergency overdraft in AllowIssue
// deliberately drives srpFree negative to break allocation deadlock.
func (r *RegMutex) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	granted := 0
	for _, c := range s.Residents() {
		for _, w := range c.Warps {
			granted += w.PolicyWord()
		}
	}
	srp := r.srp.Account("srpFree", granted)
	srp.Min = -granted
	return []sm.AuditAccount{r.regs.Account("brsFree", r.cost*len(s.Residents())), srp}
}

// Custompolicy shows how to extend the simulator with a register-file
// management scheme of your own: implement sm.Policy, plug it in through
// a gpu.PolicyFactory, and compare it against the built-ins.
//
// The demo policy, "EagerHalf", behaves like the baseline but only ever
// admits CTAs into half the register file — a lower bound that shows how
// much performance the file's capacity is worth. That decision is all it
// writes: the half is an sm.Ledger, and handing the ledger's account to the
// auditor (AuditAccounting) gets its runs checked against the resident set
// like the built-ins' (cfg.Audit below; a leaked register fails the run).
//
// It also implements the optional sm.IssueGate — most policies do not, and
// this one never vetoes an issue — to show where per-warp policy state
// lives: in the warp's policy word (one integer, zero in every launched
// CTA's warps), not in a map keyed by *sm.Warp. Here it counts the warp's
// issue attempts.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"finereg"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

// eagerHalf is a minimal sm.Policy: static allocation from half the file.
type eagerHalf struct {
	half sm.Ledger
	// attempts sums, over finished CTAs, the issue attempts their warps
	// counted; one run's SMs share it (a run is single-threaded).
	attempts *int64
}

func (p *eagerHalf) Name() string                    { return "EagerHalf" }
func (p *eagerHalf) KernelStart(s *sm.SM, now int64) { p.half.Reset(s.Cfg.TotalWarpRegs() / 2) }

func (p *eagerHalf) FillSlots(s *sm.SM, now int64) {
	cost := s.Meta().RegCostPerCTA()
	for p.half.Free() >= cost && s.LaunchNew(now, 0) != nil {
		p.half.Take(cost)
	}
}

func (p *eagerHalf) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {}
func (p *eagerHalf) OnCTAReady(s *sm.SM, c *sm.CTA, now int64)   {}
func (p *eagerHalf) BlockedOnRegisters() bool                    { return false }

func (p *eagerHalf) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	p.half.Give(c.RegCost)
	for _, w := range c.Warps {
		*p.attempts += int64(w.PolicyWord())
	}
}

// AuditAccounting (sm.SelfAuditing): every resident holds its allocation.
func (p *eagerHalf) AuditAccounting(s *sm.SM) []sm.AuditAccount {
	return []sm.AuditAccount{p.half.Account("regsFree", s.RegsHeld())}
}

// AllowIssue (sm.IssueGate) is consulted before every issue attempt.
func (p *eagerHalf) AllowIssue(s *sm.SM, w *sm.Warp, now int64) bool {
	w.SetPolicyWord(w.PolicyWord() + 1)
	return true
}

func main() {
	cfg := finereg.ScaledConfig(4)
	cfg.Audit = true
	var attempts int64
	eager := func(c sm.Config, h *mem.Hierarchy) sm.Policy { return &eagerHalf{attempts: &attempts} }

	fmt.Printf("%-8s %12s %12s %12s %18s\n", "bench", "EagerHalf", "Baseline", "FineReg", "attempts/instr")
	for _, bench := range []string{"SY2", "LB", "LI"} {
		prof, err := kernels.ProfileByName(bench)
		if err != nil {
			log.Fatal(err)
		}
		run := func(pf finereg.PolicyFactory) *finereg.Metrics {
			m, err := finereg.RunBenchmark(cfg, bench, prof.GridCTAs/8, pf)
			if err != nil {
				log.Fatal(err)
			}
			return m
		}
		attempts = 0
		m := run(eager)
		fmt.Printf("%-8s %12.3f %12.3f %12.3f %18.2f\n", bench, m.IPC(), run(finereg.Baseline()).IPC(),
			run(finereg.FineReg()).IPC(), float64(attempts)/float64(m.Instructions))
	}
	fmt.Println("\nEagerHalf wastes half the register file and pays for it; FineReg uses the")
	fmt.Println("same half for active CTAs but turns the rest into a pending pool. Attempts")
	fmt.Println("over 1 per instruction blocked on an operand or lost the slot to an older warp.")
}

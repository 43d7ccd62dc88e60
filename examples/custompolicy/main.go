// Custompolicy shows how to extend the simulator with a register-file
// management scheme of your own: implement sm.Policy, plug it in through
// a gpu.PolicyFactory, and compare it against the built-ins.
//
// The demo policy, "EagerHalf", is deliberately simple: it behaves like
// the baseline but only ever admits CTAs into half the register file,
// leaving the rest idle — a lower bound that shows how much performance
// the register file's capacity is actually worth.
//
// It also implements the optional sm.IssueGate — most policies do not, and
// this one never vetoes an issue — to show where per-warp policy state
// lives: in the warp's policy word (Warp.SetPolicyWord / PolicyWord: one
// integer, zero in every launched CTA's warps), not in a map keyed by
// *sm.Warp. Here the word counts the warp's issue attempts.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"finereg"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

// eagerHalf is a minimal sm.Policy: static allocation from half the file.
type eagerHalf struct {
	cfg      sm.Config
	regsFree int
	// attempts sums, over finished CTAs, the issue attempts their warps
	// counted; one run's SMs share it (a run is single-threaded).
	attempts *int64
}

func (p *eagerHalf) Name() string { return "EagerHalf" }
func (p *eagerHalf) KernelStart(s *sm.SM, now int64) {
	p.regsFree = p.cfg.TotalWarpRegs() / 2
}

func (p *eagerHalf) FillSlots(s *sm.SM, now int64) {
	cost := s.Meta().RegCostPerCTA()
	for s.CanActivateOne(true) && p.regsFree >= cost {
		if s.LaunchNew(now, 0) == nil {
			return
		}
		p.regsFree -= cost
	}
}

func (p *eagerHalf) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {}
func (p *eagerHalf) OnCTAReady(s *sm.SM, c *sm.CTA, now int64)   {}
func (p *eagerHalf) BlockedOnRegisters() bool                    { return false }

// AllowIssue (sm.IssueGate) is consulted before every issue attempt.
func (p *eagerHalf) AllowIssue(s *sm.SM, w *sm.Warp, now int64) bool {
	w.SetPolicyWord(w.PolicyWord() + 1)
	return true
}

func (p *eagerHalf) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	p.regsFree += c.RegCost
	for _, w := range c.Warps {
		*p.attempts += int64(w.PolicyWord())
	}
}

func main() {
	cfg := finereg.ScaledConfig(4)
	var attempts int64
	factory := func(c sm.Config, h *mem.Hierarchy) sm.Policy { return &eagerHalf{cfg: c, attempts: &attempts} }

	fmt.Printf("%-8s %12s %12s %12s %18s\n", "bench", "EagerHalf", "Baseline", "FineReg", "attempts/instr")
	for _, bench := range []string{"SY2", "LB", "LI"} {
		prof, err := kernels.ProfileByName(bench)
		if err != nil {
			log.Fatal(err)
		}
		grid := prof.GridCTAs / 8
		run := func(pf gpu.PolicyFactory) float64 {
			m, err := finereg.RunBenchmark(cfg, bench, grid, pf)
			if err != nil {
				log.Fatal(err)
			}
			return m.IPC()
		}
		attempts = 0
		m, err := finereg.RunBenchmark(cfg, bench, grid, factory)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12.3f %12.3f %12.3f %18.2f\n", bench, m.IPC(),
			run(finereg.Baseline()), run(finereg.FineReg()), float64(attempts)/float64(m.Instructions))
	}
	fmt.Println("\nEagerHalf wastes half the register file and pays for it; FineReg uses")
	fmt.Println("the same half for active CTAs but turns the rest into a pending pool.")
	fmt.Println("attempts/instr is EagerHalf's per-warp count of issue attempts (kept in each")
	fmt.Println("warp's policy word) over instructions issued: the excess over 1 is attempts")
	fmt.Println("that blocked on an operand or lost the slot to an older ready warp.")
}

// Custompolicy shows how to extend the simulator with a register-file
// management scheme of your own: implement sm.Policy, plug it in through
// a gpu.PolicyFactory, and compare it against the built-ins.
// (A policy that has to veto individual instruction issues would also
// implement the optional sm.IssueGate; this one, like most, does not.)
//
// The demo policy, "EagerHalf", is deliberately simple: it behaves like
// the baseline but only ever admits CTAs into half the register file,
// leaving the rest idle — a lower bound that shows how much performance
// the register file's capacity is actually worth.
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

func (p *eagerHalf) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64)  {}
func (p *eagerHalf) OnCTAReady(s *sm.SM, c *sm.CTA, now int64)    {}
func (p *eagerHalf) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) { p.regsFree += c.RegCost }
func (p *eagerHalf) BlockedOnRegisters() bool                     { return false }

func main() {
	cfg := finereg.ScaledConfig(4)
	factory := func(c sm.Config, h *mem.Hierarchy) sm.Policy { return &eagerHalf{cfg: c} }

	fmt.Printf("%-8s %12s %12s %12s\n", "bench", "EagerHalf", "Baseline", "FineReg")
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
		fmt.Printf("%-8s %12.3f %12.3f %12.3f\n",
			bench, run(factory), run(finereg.Baseline()), run(finereg.FineReg()))
	}
	fmt.Println("\nEagerHalf wastes half the register file and pays for it; FineReg uses")
	fmt.Println("the same half for active CTAs but turns the rest into a pending pool.")
}

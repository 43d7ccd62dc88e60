package experiments

import (
	"finereg/internal/energy"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
)

// This file is the experiments layer's bridge to the run engine
// (internal/runner): every Figure*/Table* function declares its
// simulations as a jobSet, submits the whole set as one batch, and then
// assembles its tables from the results. The engine parallelizes and
// dedups; declaration order is preserved, so tables render byte-identically
// at any worker count.

// engine returns the configured run engine, or a fresh default (GOMAXPROCS
// workers, no cache) when none was set. A fresh engine still collapses
// duplicate points within one batch via in-flight tracking.
func (o Options) engine() *runner.Engine {
	if o.Runner != nil {
		return o.Runner
	}
	return &runner.Engine{}
}

// ref indexes one submitted job within its jobSet's result slice.
type ref int

// jobSet accumulates jobs for one experiment and runs them as one batch.
type jobSet struct {
	o    Options
	jobs []*runner.Job
}

func (o Options) newSet() *jobSet { return &jobSet{o: o} }

// add submits one simulation point and returns its result slot.
func (s *jobSet) add(cfg gpu.Config, prof kernels.Profile, grid int, pol runner.PolicySpec, trackReg bool) ref {
	s.jobs = append(s.jobs, &runner.Job{
		Cfg: cfg, Profile: prof, Grid: grid, Policy: pol, TrackReg: trackReg,
	})
	return ref(len(s.jobs) - 1)
}

// addTraced submits a stall-attributed simulation point.
func (s *jobSet) addTraced(cfg gpu.Config, prof kernels.Profile, grid int, pol runner.PolicySpec) ref {
	s.jobs = append(s.jobs, &runner.Job{
		Cfg: cfg, Profile: prof, Grid: grid, Policy: pol, Stalls: true,
	})
	return ref(len(s.jobs) - 1)
}

// run executes the set and converts results to Runs (attaching the energy
// estimate, a pure function of metrics and machine size). A batch with
// failures aborts with the aggregated error — matching the historical
// fail-fast behaviour of the serial harness — but everything that could
// run has run, so a retry after a fix hits the cache for the survivors.
func (s *jobSet) run() ([]*Run, error) {
	b := s.o.engine().Run(s.jobs)
	if err := b.Err(); err != nil {
		return nil, err
	}
	runs := make([]*Run, len(b.Results))
	for i, res := range b.Results {
		runs[i] = &Run{
			Metrics: res.Metrics,
			Energy:  energy.Estimate(res.Metrics, s.jobs[i].Cfg.NumSMs, energy.DefaultCoefficients()),
			Windows: res.Windows,
		}
	}
	return runs, nil
}

// pick is a deferred best-of selection over tuning candidates of one
// configuration (the paper's per-application tuning of Reg+DRAM and
// VT+RegMutex). For single-candidate configurations it is a plain lookup.
type pick struct {
	cn   ConfigName
	refs []ref
}

// tuned holds the paper's per-application tuning candidates: "we varied the
// number of pending CTAs in the off-chip memory to find its
// best-performance setup for every application" (Reg+DRAM) and "we merged
// Virtual Thread into RegMutex to empirically find the optimal operating
// point of RegMutex" (VT+RegMutex). pick.best resolves each to its peak-IPC
// candidate; a configuration not listed here runs once, at specFor's point.
var tuned = map[ConfigName][]runner.PolicySpec{
	CfgRegDRAM: {runner.RegDRAM(0), runner.RegDRAM(2), runner.RegDRAM(4)},
	CfgRegMutex: {runner.VTRegMutex(0.10), runner.VTRegMutex(0.15), runner.VTRegMutex(0.20),
		runner.VTRegMutex(0.25), runner.VTRegMutex(0.30)},
}

// addConfig submits the job(s) for configuration cn: its tuning candidates
// when the paper tunes it, one job otherwise.
func (s *jobSet) addConfig(cfg gpu.Config, prof kernels.Profile, grid int, cn ConfigName) (pick, error) {
	specs := tuned[cn]
	if specs == nil {
		spec, err := specFor(cn)
		if err != nil {
			return pick{}, err
		}
		specs = []runner.PolicySpec{spec}
	}
	p := pick{cn: cn}
	for _, spec := range specs {
		p.refs = append(p.refs, s.add(cfg, prof, grid, spec, false))
	}
	return p, nil
}

// best resolves the pick against the batch results: the candidate with
// peak IPC, earliest-submitted winning ties (matching the serial tuning
// loops). Tuned configurations are relabeled to their paper name.
func (p pick) best(runs []*Run) *Run {
	b := runs[p.refs[0]]
	for _, r := range p.refs[1:] {
		if runs[r].Metrics.IPC() > b.Metrics.IPC() {
			b = runs[r]
		}
	}
	if len(p.refs) > 1 {
		b.Metrics.Config = string(p.cn)
	}
	return b
}

// specFor maps a configuration name to its policy spec at the default
// operating point (DRAM cap 4, SRP 0.25) — used where the paper does not
// tune. The names are the paper's legends, which runner's policy table knows.
func specFor(cn ConfigName) (runner.PolicySpec, error) {
	return runner.ParsePolicy(string(cn), runner.DefaultSRPFrac, runner.DefaultDRAMCap)
}

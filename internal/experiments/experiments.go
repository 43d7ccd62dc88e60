// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections II, III, and VI). Each Figure*/Table* function runs
// the required simulations and returns a result struct that carries both
// the structured data (for tests and benchmarks) and a Render method that
// prints the same rows/series the paper reports.
//
// Absolute numbers differ from the paper (the substrate is this
// repository's simulator, not the authors' GPGPU-Sim testbed); the
// reproduction targets are the shapes — orderings, approximate factors,
// and crossovers — recorded side by side in EXPERIMENTS.md.
package experiments

import (
	"finereg/internal/energy"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// Options scales the experiment machinery. Paper() reproduces the Table I
// machine at full workload scale; Quick() is a proportionally shrunken
// machine for tests and `go test -bench`.
type Options struct {
	// SMs is the machine size; the shared L2 and DRAM bandwidth scale
	// proportionally (gpu.Config.Scale).
	SMs int
	// GridScale multiplies every benchmark's grid relative to its 16-SM
	// reference size (0 = SMs/16).
	GridScale float64
	// Benchmarks restricts the suite (nil = all of Table II).
	Benchmarks []string
	// Runner executes the simulations. nil uses a fresh default engine
	// per experiment (GOMAXPROCS workers, no cache); share one Engine
	// with a cache across experiments to dedup repeated points between
	// figures — finereg-experiments does exactly that. What the engine
	// executes on is its own business (Engine.Exec): the in-process
	// simulator, or a remote finereg-serve; the tables are byte-identical.
	Runner *runner.Engine
	// Audit enables the runtime invariant auditor (internal/audit) on
	// every simulation. Audited and unaudited runs cache separately (the
	// flag is part of gpu.Config and therefore of the job key).
	Audit bool
	// AuditCollect audits in collect-all mode: violations accumulate and
	// the run fails at the end with a *audit.ViolationSet summary instead
	// of aborting at the first drift. Implies Audit; not part of the job
	// key.
	AuditCollect bool
}

// Paper returns the full-scale configuration of Table I.
func Paper() Options { return Options{SMs: 16, GridScale: 1.0} }

// Quick returns a 4-SM machine with quarter-size grids: per-SM behaviour
// is preserved (resources scale together) while runs stay test-sized.
func Quick() Options { return Options{SMs: 4, GridScale: 0.25} }

// tableI is the Table I SM: the per-SM limits behind Table II's occupancy
// classes, Figure 19's pool split and Figure 18's storage overhead.
var tableI = sm.Default()

func (o Options) benchNames() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return kernels.Names()
}

func (o Options) config() gpu.Config {
	cfg := gpu.Default().Scale(o.SMs)
	cfg.Audit = o.Audit || o.AuditCollect
	cfg.AuditCollect = o.AuditCollect
	return cfg
}

// grid is the shared grid rule with the experiments' own floor on top: at
// least one CTA per SM, so every SM of a shrunken machine takes part.
func (o Options) grid(p *kernels.Profile) int {
	return max(o.SMs, p.ScaledGrid(o.GridScale, o.SMs))
}

// resized returns o on an n-SM machine with every grid scaled along, so
// per-SM pressure is constant.
func (o Options) resized(n int) Options {
	o.GridScale = o.GridScale * float64(n) / float64(o.SMs) // in this order: the rounding reaches the grid, and so the job key
	o.SMs = n
	return o
}

// profile returns the benchmark profile with its streaming footprint
// scaled to the machine: the shared L2 and DRAM bandwidth scale with SM
// count, so working sets must scale too or a small machine would be
// artificially bandwidth-bound (per-SM hot regions are untouched).
func (o Options) profile(name string) (kernels.Profile, error) {
	p, err := kernels.ProfileByName(name)
	if err != nil {
		return p, err
	}
	scaled := int(float64(p.FootprintKB) * float64(o.SMs) / 16)
	if scaled < 256 {
		scaled = 256
	}
	p.FootprintKB = scaled
	return p, nil
}

// ConfigName labels the paper's GPU configurations.
type ConfigName string

// The evaluated configurations (Figure 12/13 legends).
const (
	CfgBaseline ConfigName = "Baseline"
	CfgVT       ConfigName = "VT"
	CfgRegDRAM  ConfigName = "Reg+DRAM"
	CfgRegMutex ConfigName = "VT+RegMutex"
	CfgFineReg  ConfigName = "FineReg"
)

// StandardConfigs returns the five configurations in plot order.
func StandardConfigs() []ConfigName {
	return []ConfigName{CfgBaseline, CfgVT, CfgRegDRAM, CfgRegMutex, CfgFineReg}
}

// Run is one simulation outcome.
type Run struct {
	Metrics *stats.Metrics
	Energy  energy.Breakdown
	// Windows holds Figure 5 register-usage fractions when tracking was
	// enabled.
	Windows []float64
}

package experiments

import (
	"fmt"

	"finereg/internal/core"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/runner"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// Ablations isolates FineReg's design choices (DESIGN.md §7): live-register
// compaction, the RMU bit-vector cache, the CTA-switch absence gate, and
// GTO scheduling. Each variant reports geomean IPC normalized to the full
// FineReg design over a mixed-class benchmark subset.
type AblationsResult struct {
	Labels []string
	// Norm[i] is variant i's geomean IPC relative to full FineReg.
	Norm []float64
}

// AblationBenches is a mixed Type-S/Type-R subset.
var AblationBenches = []string{"CS", "SY2", "MC", "LB", "LI", "SG"}

// Ablations runs the design-choice study.
func Ablations(opts Options) (*AblationsResult, error) {
	opts.Benchmarks = AblationBenches
	m, err := opts.matrix(
		column{label: "FineReg (full design)", spec: runner.FineRegDefault()},
		column{label: "no live compaction (full register sets in PCRF)",
			spec: runner.FineRegFull(128<<10, 128<<10)},
		column{label: "cold bit-vector cache (RMU cache disabled)",
			spec: runner.Custom("finereg/cold-bitvec", coldBitvecFactory())},
		column{label: "loose round-robin scheduling (GTO off)", spec: runner.FineRegDefault(),
			edit: func(cfg *gpu.Config, _ *kernels.Profile) { cfg.SM.Scheduler = sm.SchedLRR }})
	if err != nil {
		return nil, err
	}
	res := &AblationsResult{Labels: labels(m.cols)}
	for c := range m.cols {
		res.Norm = append(res.Norm, stats.Geomean(m.ratio(c, 0, ipc)))
	}
	return res, nil
}

// coldBitvecFactory builds FineReg variants whose RMU bit-vector cache is
// flushed before every lookup, making every CTA switch pay the off-chip
// bit-vector fetch — the ablation for the Section V-C cache.
func coldBitvecFactory() gpu.PolicyFactory {
	return func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
		f := core.NewFineReg(cfg, hier, cfg.RegFileBytes/2, cfg.RegFileBytes-cfg.RegFileBytes/2)
		return &coldBitvecPolicy{FineReg: f}
	}
}

// coldBitvecPolicy wraps FineReg, resetting the RMU cache before each
// stall so every lookup misses.
type coldBitvecPolicy struct{ *core.FineReg }

// Name implements sm.Policy.
func (p *coldBitvecPolicy) Name() string { return "FineReg(cold-bitvec)" }

// OnCTAStalled flushes the bit-vector cache before delegating.
func (p *coldBitvecPolicy) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	p.RMUState().Reset()
	p.FineReg.OnCTAStalled(s, c, now)
}

// Render prints the ablation table.
func (r *AblationsResult) Render() string {
	t := &stats.Table{Header: []string{"variant", "IPC vs full FineReg"}}
	for i, l := range r.Labels {
		t.AddRow(l, r.Norm[i])
	}
	return fmt.Sprintf("Ablations over %v\n%s", AblationBenches, t.String())
}

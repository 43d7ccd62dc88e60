package experiments

import (
	"fmt"

	"finereg/internal/stats"
)

// StallRun is one traced simulation: its metrics with the stall breakdown
// attached (Metrics.Stalls is always non-nil here).
type StallRun struct {
	Metrics *stats.Metrics
}

// StallReport holds the traced runs of a benchmark × configuration sweep,
// bucketing every warp-slot cycle by why the warp did not issue.
type StallReport struct {
	Configs []ConfigName
	Runs    map[string]map[ConfigName]*StallRun // benchmark -> config -> run
}

// StallBreakdowns runs each benchmark under each configuration with a
// stall-attribution aggregator attached (Job.Stalls — the engine verifies
// the accounting partition per job). Unlike the sweep it does not
// per-application-tune Reg+DRAM/RegMutex (a traced run is a diagnostic
// probe, not a reported score): it uses the paper's default operating
// points (DRAM cap 4, SRP 0.25) via specFor.
func StallBreakdowns(o Options) (*StallReport, error) {
	rep := &StallReport{Configs: StandardConfigs(), Runs: map[string]map[ConfigName]*StallRun{}}
	cols := make([]column, len(rep.Configs))
	for i, cn := range rep.Configs {
		spec, err := specFor(cn)
		if err != nil {
			return nil, err
		}
		cols[i] = column{spec: spec, stalls: true}
	}
	m, err := o.matrix(cols...)
	if err != nil {
		return nil, err
	}
	for b, name := range m.benches {
		rep.Runs[name] = map[ConfigName]*StallRun{}
		for c, cn := range rep.Configs {
			run := m.runs[b][c].Metrics
			run.Config = string(cn)
			rep.Runs[name][cn] = &StallRun{Metrics: run}
		}
	}
	return rep, nil
}

// Render prints one row per benchmark × configuration with the share of
// warp-slot cycles in each bucket.
func (r *StallReport) Render() string {
	t := &stats.Table{Header: []string{
		"bench/config", "slotCyc", "issue%", "idle%", "sboard%", "mem%", "xfer%", "deplete%", "bar%",
	}}
	pct := func(v, total int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	for _, bench := range stats.SortedKeys(r.Runs) {
		for _, cn := range r.Configs {
			s := r.Runs[bench][cn].Metrics.Stalls
			t.AddRow(fmt.Sprintf("%s/%s", bench, cn),
				s.WarpSlotCycles,
				pct(s.IssueCycles, s.WarpSlotCycles),
				pct(s.IdleCycles, s.WarpSlotCycles),
				pct(s.ScoreboardCycles, s.WarpSlotCycles),
				pct(s.MemoryCycles, s.WarpSlotCycles),
				pct(s.TransferCycles, s.WarpSlotCycles),
				pct(s.RegDepletionCycles, s.WarpSlotCycles),
				pct(s.BarrierCycles, s.WarpSlotCycles))
		}
	}
	return t.String()
}

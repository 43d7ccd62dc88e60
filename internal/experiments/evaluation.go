package experiments

import (
	"fmt"
	"slices"
	"strings"

	"finereg/internal/runner"
	"finereg/internal/stats"
)

// Sweep holds the five-configuration comparison over the benchmark suite
// that backs Figures 12, 13 and 16. Results are keyed [benchmark][config].
type Sweep struct {
	Order   []string
	Configs []ConfigName
	Runs    map[string]map[ConfigName]*Run
	m       *matrix // the same runs, [Order][Configs]
}

// RunSweep executes every benchmark under every standard configuration
// (tuning candidates included) as one job batch.
func RunSweep(opts Options) (*Sweep, error) {
	m, err := opts.matrix(paperCols(StandardConfigs())...)
	if err != nil {
		return nil, err
	}
	s := &Sweep{Order: m.benches, Configs: StandardConfigs(), Runs: map[string]map[ConfigName]*Run{}, m: m}
	for b, name := range s.Order {
		s.Runs[name] = map[ConfigName]*Run{}
		for c, cn := range s.Configs {
			s.Runs[name][cn] = m.runs[b][c]
		}
	}
	return s, nil
}

// means returns, per configuration, the {overall, Type-S, Type-R}
// geometric means of metric relative to the baseline column.
func (s *Sweep) means(metric func(*Run) float64) map[ConfigName][3]float64 {
	out := map[ConfigName][3]float64{}
	for c, cn := range s.Configs {
		out[cn] = s.m.means(c, 0, metric)
	}
	return out
}

// configTable renders one row per benchmark with cell(bench, config) under
// each of configs, which head the columns.
func configTable(benches []string, configs []ConfigName, cell func(bench string, cn ConfigName) float64) string {
	t := &stats.Table{Header: []string{"bench"}}
	for _, cn := range configs {
		t.Header = append(t.Header, string(cn))
	}
	for _, b := range benches {
		vals := make([]any, len(configs))
		for i, cn := range configs {
			vals[i] = cell(b, cn)
		}
		t.AddRow(b, vals...)
	}
	return t.String()
}

// summary renders the non-baseline configurations' overall means after
// lead, then FineReg's per-class split; verb formats one mean.
func (s *Sweep) summary(lead, verb string, mean map[ConfigName][3]float64) string {
	var parts []string
	for _, cn := range s.Configs[1:] {
		parts = append(parts, fmt.Sprintf("%s "+verb, cn, mean[cn][0]))
	}
	fr := mean[CfgFineReg]
	return fmt.Sprintf("%s: %s\n%s by class: Type-S "+verb+", Type-R "+verb+"\n",
		lead, strings.Join(parts, ", "), CfgFineReg, fr[1], fr[2])
}

// ---- Figure 12 ----

// Figure12Result reports concurrent (resident) CTA counts.
type Figure12Result struct {
	Sweep *Sweep
	// Mean[cfg] = {overall, Type-S, Type-R} geometric-mean CTA ratio vs
	// baseline.
	Mean map[ConfigName][3]float64
}

// Figure12 derives the concurrent-CTA comparison from a sweep.
func Figure12(s *Sweep) *Figure12Result {
	return &Figure12Result{Sweep: s, Mean: s.means(residentCTAs)}
}

// Render prints per-benchmark resident CTAs and the class means.
func (r *Figure12Result) Render() string {
	s := r.Sweep
	return "Figure 12. Concurrent CTAs per SM\n" +
		configTable(s.Order, s.Configs, func(b string, cn ConfigName) float64 { return residentCTAs(s.Runs[b][cn]) }) +
		s.summary("Mean CTA ratio vs baseline", "%.2fx", r.Mean)
}

// ---- Figure 13 ----

// Figure13Result reports normalized IPC.
type Figure13Result struct {
	Sweep *Sweep
	Mean  map[ConfigName][3]float64
}

// Figure13 derives the normalized-performance comparison from a sweep.
func Figure13(s *Sweep) *Figure13Result {
	return &Figure13Result{Sweep: s, Mean: s.means(ipc)}
}

// Speedup returns one benchmark's IPC ratio under cfg vs baseline.
func (r *Figure13Result) Speedup(bench string, cfg ConfigName) float64 {
	return stats.Speedup(r.Sweep.Runs[bench][cfg].Metrics.IPC(),
		r.Sweep.Runs[bench][CfgBaseline].Metrics.IPC())
}

// Render prints normalized IPC per benchmark plus means.
func (r *Figure13Result) Render() string {
	s := r.Sweep
	return "Figure 13. Normalized IPC vs baseline\n" +
		configTable(s.Order, s.Configs[1:], r.Speedup) + s.summary("Geomean speedup", "%.3f", r.Mean)
}

// ---- Figure 14 ----

// Figure14Result reports (a) the best SRP fraction per benchmark and (b)
// register-depletion stall fractions for the memory-intensive trio.
type Figure14Result struct {
	// BestSRP maps benchmark -> SRP fraction with peak VT+RegMutex IPC.
	BestSRP map[string]float64
	// MeanSRP / MeanSRPMemIntensive are the averages the paper quotes
	// (28.1% overall, 20.8% for KM/SY2/BF).
	MeanSRP, MeanSRPMemIntensive float64
	// StallFrac[bench][0] = RegMutex, [1] = FineReg depletion stall
	// fraction of total cycles, for the memory-intensive benchmarks.
	StallFrac map[string][2]float64
}

// MemIntensive is the trio the paper analyses in Figure 14(b).
var MemIntensive = []string{"KM", "SY2", "BF"}

// Figure14 sweeps the RegMutex SRP fraction and measures depletion stalls.
func Figure14(opts Options) (*Figure14Result, error) {
	fracs := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35}
	cols := make([]column, len(fracs))
	for i, f := range fracs {
		cols[i] = column{spec: runner.VTRegMutex(f)}
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}
	res := &Figure14Result{BestSRP: map[string]float64{}, StallFrac: map[string][2]float64{}}
	// The FineReg side of panel (b) runs only on the trio's members in the
	// suite, so it is a second, smaller grid.
	trio := opts
	trio.Benchmarks = nil
	var trioBest []*Run
	var sum, trioSum float64
	for b, name := range m.benches {
		best := 0
		for c, r := range m.runs[b] {
			if ipc(r) > ipc(m.runs[b][best]) {
				best = c
			}
		}
		res.BestSRP[name] = fracs[best]
		sum += fracs[best]
		if slices.Contains(MemIntensive, name) {
			trio.Benchmarks = append(trio.Benchmarks, name)
			trioBest = append(trioBest, m.runs[b][best])
			trioSum += fracs[best]
		}
	}
	res.MeanSRP = sum / float64(len(m.benches))
	if len(trio.Benchmarks) == 0 {
		return res, nil
	}
	fine, err := trio.matrix(column{spec: runner.FineRegDefault()})
	if err != nil {
		return nil, err
	}
	// RegDepletionStallCycles sums over SMs; normalize by Cycles×SMs for the
	// per-SM stall fraction of Figure 14(b).
	stall := func(r *Run) float64 {
		return float64(r.Metrics.RegDepletionStallCycles) / (float64(r.Metrics.Cycles) * float64(opts.SMs))
	}
	for b, name := range fine.benches {
		res.StallFrac[name] = [2]float64{stall(trioBest[b]), stall(fine.runs[b][0])}
	}
	res.MeanSRPMemIntensive = trioSum / float64(len(trio.Benchmarks))
	return res, nil
}

// Render prints both panels.
func (r *Figure14Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "best SRP frac"}}
	for _, b := range stats.SortedKeys(r.BestSRP) {
		t.AddRow(b, r.BestSRP[b])
	}
	out := fmt.Sprintf("Figure 14(a). Best SRP fraction per benchmark (mean %.1f%%, mem-intensive %.1f%%)\n%s",
		100*r.MeanSRP, 100*r.MeanSRPMemIntensive, t.String())
	t2 := &stats.Table{Header: []string{"bench", "RegMutex stall %", "FineReg stall %"}}
	for _, b := range MemIntensive {
		if sf, ran := r.StallFrac[b]; ran {
			t2.AddRow(b, 100*sf[0], 100*sf[1])
		}
	}
	out += "Figure 14(b). Stall cycles from register-resource depletion\n" + t2.String()
	return out
}

// ---- Figure 15 ----

// Figure15Benches are the three applications the paper measures.
var Figure15Benches = []string{"FD", "NW", "ST"}

// Figure15Result reports normalized off-chip traffic.
type Figure15Result struct {
	// Traffic[bench][cfg] is total DRAM bytes normalized to baseline.
	Traffic map[string]map[ConfigName]float64
	// ContextBytes[bench][cfg] is the raw CTA-context traffic.
	ContextBytes map[string]map[ConfigName]int64
}

// Figure15 measures memory traffic for FD, NW and ST. Reg+DRAM runs with a
// fixed off-chip pool (cap 4) here — the point of the figure is the
// context-switching traffic that configuration generates.
func Figure15(opts Options) (*Figure15Result, error) {
	opts.Benchmarks = Figure15Benches
	cols := paperCols(StandardConfigs())
	for i := range cols {
		if cols[i].cn == CfgRegDRAM {
			cols[i].cn, cols[i].spec = "", runner.RegDRAM(runner.DefaultDRAMCap)
		}
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}
	res := &Figure15Result{
		Traffic:      map[string]map[ConfigName]float64{},
		ContextBytes: map[string]map[ConfigName]int64{},
	}
	for b, name := range m.benches {
		res.Traffic[name] = map[ConfigName]float64{}
		res.ContextBytes[name] = map[ConfigName]int64{}
		base := m.runs[b][0].Metrics.DRAMBytes()
		for c, cn := range StandardConfigs() {
			r := m.runs[b][c].Metrics
			res.Traffic[name][cn] = float64(r.DRAMBytes()) / float64(base)
			res.ContextBytes[name][cn] = r.DRAMContextBytes
		}
	}
	return res, nil
}

// Render prints normalized traffic.
func (r *Figure15Result) Render() string {
	return "Figure 15. Off-chip memory traffic normalized to baseline\n" +
		configTable(Figure15Benches, StandardConfigs(), func(b string, cn ConfigName) float64 { return r.Traffic[b][cn] })
}

// ---- Figure 16 ----

// Figure16Result reports the energy comparison.
type Figure16Result struct {
	Sweep *Sweep
	// Norm[cfg] is geomean energy normalized to baseline.
	Norm map[ConfigName]float64
	// Components[cfg] is the suite-summed breakdown in µJ:
	// {DRAMDyn, RFDyn, OthersDyn, Leakage, FineRegLogic, CTASwitch}.
	Components map[ConfigName][6]float64
}

// Figure16 derives the energy comparison from a sweep.
func Figure16(s *Sweep) *Figure16Result {
	res := &Figure16Result{Sweep: s, Norm: map[ConfigName]float64{}, Components: map[ConfigName][6]float64{}}
	for c, cn := range s.Configs {
		res.Norm[cn] = stats.Geomean(s.m.ratio(c, 0, func(r *Run) float64 { return r.Energy.Total() }))
		var comp [6]float64
		for _, row := range s.m.runs {
			e := row[c].Energy
			comp[0] += e.DRAMDyn
			comp[1] += e.RFDyn
			comp[2] += e.OthersDyn
			comp[3] += e.Leakage
			comp[4] += e.FineRegLog
			comp[5] += e.CTASwitch
		}
		res.Components[cn] = comp
	}
	return res
}

// Render prints normalized energy and the component breakdown.
func (r *Figure16Result) Render() string {
	t := &stats.Table{Header: []string{"config", "norm energy", "DRAM_Dyn", "RF_Dyn", "Others_Dyn", "Leakage", "FineRegLogic", "CTASwitch"}}
	for _, cn := range r.Sweep.Configs {
		c := r.Components[cn]
		t.AddRow(string(cn), r.Norm[cn], c[0], c[1], c[2], c[3], c[4], c[5])
	}
	return "Figure 16. Normalized energy with component breakdown (uJ, suite totals)\n" + t.String()
}

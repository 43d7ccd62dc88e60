package experiments

import (
	"fmt"

	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/stats"
)

// Sweep holds the five-configuration comparison over the benchmark suite
// that backs Figures 12, 13, 15 and 16. Results are keyed
// [benchmark][config].
type Sweep struct {
	Order   []string
	Configs []ConfigName
	Runs    map[string]map[ConfigName]*Run
}

// RunSweep executes every benchmark under every standard configuration
// (tuning candidates included) as one job batch.
func RunSweep(opts Options) (*Sweep, error) {
	s := &Sweep{Configs: StandardConfigs(), Runs: map[string]map[ConfigName]*Run{}}
	set := opts.newSet()
	type cell struct {
		bench string
		cn    ConfigName
		p     pick
	}
	var cells []cell
	for _, name := range opts.benchNames() {
		prof, err := opts.profile(name)
		if err != nil {
			return nil, err
		}
		grid := opts.grid(&prof)
		s.Order = append(s.Order, name)
		s.Runs[name] = map[ConfigName]*Run{}
		for _, cn := range s.Configs {
			p, err := set.addConfig(opts.config(), prof, grid, cn)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{name, cn, p})
		}
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		s.Runs[c.bench][c.cn] = c.p.best(runs)
	}
	return s, nil
}

// classOf returns a benchmark's Type.
func classOf(name string) kernels.Type {
	p, err := kernels.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p.Class
}

// meanRatio computes the per-class and overall geometric means of
// metric(cfg)/metric(baseline).
func (s *Sweep) meanRatio(cfg ConfigName, metric func(*Run) float64) (all, typeS, typeR float64) {
	var a, sv, rv []float64
	for _, b := range s.Order {
		ratio := stats.Speedup(metric(s.Runs[b][cfg]), metric(s.Runs[b][CfgBaseline]))
		a = append(a, ratio)
		if classOf(b) == kernels.TypeS {
			sv = append(sv, ratio)
		} else {
			rv = append(rv, ratio)
		}
	}
	return stats.Geomean(a), stats.Geomean(sv), stats.Geomean(rv)
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
	res := &Figure12Result{Sweep: s, Mean: map[ConfigName][3]float64{}}
	for _, cn := range s.Configs {
		all, ts, tr := s.meanRatio(cn, func(r *Run) float64 { return r.Metrics.AvgResidentCTAs })
		res.Mean[cn] = [3]float64{all, ts, tr}
	}
	return res
}

// Render prints per-benchmark resident CTAs and the class means.
func (r *Figure12Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "Baseline", "VT", "Reg+DRAM", "VT+RegMutex", "FineReg"}}
	for _, b := range r.Sweep.Order {
		vals := make([]any, 0, 5)
		for _, cn := range r.Sweep.Configs {
			vals = append(vals, r.Sweep.Runs[b][cn].Metrics.AvgResidentCTAs)
		}
		t.AddRow(b, vals...)
	}
	out := "Figure 12. Concurrent CTAs per SM\n" + t.String()
	out += fmt.Sprintf("Mean CTA ratio vs baseline: VT %.2fx, Reg+DRAM %.2fx, VT+RegMutex %.2fx, FineReg %.2fx\n",
		r.Mean[CfgVT][0], r.Mean[CfgRegDRAM][0], r.Mean[CfgRegMutex][0], r.Mean[CfgFineReg][0])
	out += fmt.Sprintf("FineReg by class: Type-S %.2fx, Type-R %.2fx\n",
		r.Mean[CfgFineReg][1], r.Mean[CfgFineReg][2])
	return out
}

// ---- Figure 13 ----

// Figure13Result reports normalized IPC.
type Figure13Result struct {
	Sweep *Sweep
	Mean  map[ConfigName][3]float64
}

// Figure13 derives the normalized-performance comparison from a sweep.
func Figure13(s *Sweep) *Figure13Result {
	res := &Figure13Result{Sweep: s, Mean: map[ConfigName][3]float64{}}
	for _, cn := range s.Configs {
		all, ts, tr := s.meanRatio(cn, func(r *Run) float64 { return r.Metrics.IPC() })
		res.Mean[cn] = [3]float64{all, ts, tr}
	}
	return res
}

// Speedup returns one benchmark's IPC ratio under cfg vs baseline.
func (r *Figure13Result) Speedup(bench string, cfg ConfigName) float64 {
	return stats.Speedup(r.Sweep.Runs[bench][cfg].Metrics.IPC(),
		r.Sweep.Runs[bench][CfgBaseline].Metrics.IPC())
}

// Render prints normalized IPC per benchmark plus means.
func (r *Figure13Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "VT", "Reg+DRAM", "VT+RegMutex", "FineReg"}}
	for _, b := range r.Sweep.Order {
		vals := make([]any, 0, 4)
		for _, cn := range r.Sweep.Configs[1:] {
			vals = append(vals, r.Speedup(b, cn))
		}
		t.AddRow(b, vals...)
	}
	out := "Figure 13. Normalized IPC vs baseline\n" + t.String()
	out += fmt.Sprintf("Geomean speedup: VT %.3f, Reg+DRAM %.3f, VT+RegMutex %.3f, FineReg %.3f\n",
		r.Mean[CfgVT][0], r.Mean[CfgRegDRAM][0], r.Mean[CfgRegMutex][0], r.Mean[CfgFineReg][0])
	out += fmt.Sprintf("FineReg by class: Type-S %.3f, Type-R %.3f\n",
		r.Mean[CfgFineReg][1], r.Mean[CfgFineReg][2])
	return out
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
	res := &Figure14Result{BestSRP: map[string]float64{}, StallFrac: map[string][2]float64{}}
	fracs := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35}
	memIntensive := map[string]bool{}
	for _, b := range MemIntensive {
		memIntensive[b] = true
	}
	set := opts.newSet()
	type row struct {
		bench    string
		srpRefs  []ref
		fineRef  ref
		memHeavy bool
	}
	var rows []row
	for _, name := range opts.benchNames() {
		prof, err := opts.profile(name)
		if err != nil {
			return nil, err
		}
		grid := opts.grid(&prof)
		r := row{bench: name, memHeavy: memIntensive[name]}
		for _, f := range fracs {
			r.srpRefs = append(r.srpRefs, set.add(opts.config(), prof, grid, runner.VTRegMutex(f), false))
		}
		if r.memHeavy {
			r.fineRef = set.add(opts.config(), prof, grid, runner.FineRegDefault(), false)
		}
		rows = append(rows, r)
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}
	var sum, memSum float64
	for _, r := range rows {
		bestIPC, bestFrac := -1.0, fracs[0]
		var bestRun *Run
		for i, ref := range r.srpRefs {
			if ipc := runs[ref].Metrics.IPC(); ipc > bestIPC {
				bestIPC, bestFrac, bestRun = ipc, fracs[i], runs[ref]
			}
		}
		res.BestSRP[r.bench] = bestFrac
		sum += bestFrac
		if r.memHeavy {
			memSum += bestFrac
			fr := runs[r.fineRef]
			// RegDepletionStallCycles sums over SMs; normalize by
			// Cycles×SMs for the per-SM stall fraction of Figure 14(b).
			denom := float64(bestRun.Metrics.Cycles) * float64(opts.SMs)
			res.StallFrac[r.bench] = [2]float64{
				float64(bestRun.Metrics.RegDepletionStallCycles) / denom,
				float64(fr.Metrics.RegDepletionStallCycles) / (float64(fr.Metrics.Cycles) * float64(opts.SMs)),
			}
		}
	}
	if n := len(opts.benchNames()); n > 0 {
		res.MeanSRP = sum / float64(n)
	}
	res.MeanSRPMemIntensive = memSum / float64(len(MemIntensive))
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
		sf := r.StallFrac[b]
		t2.AddRow(b, 100*sf[0], 100*sf[1])
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
	res := &Figure15Result{
		Traffic:      map[string]map[ConfigName]float64{},
		ContextBytes: map[string]map[ConfigName]int64{},
	}
	set := opts.newSet()
	type cell struct {
		bench string
		cn    ConfigName
		p     pick
	}
	var cells []cell
	for _, name := range Figure15Benches {
		prof, err := opts.profile(name)
		if err != nil {
			return nil, err
		}
		grid := opts.grid(&prof)
		res.Traffic[name] = map[ConfigName]float64{}
		res.ContextBytes[name] = map[ConfigName]int64{}
		for _, cn := range StandardConfigs() {
			var p pick
			if cn == CfgRegDRAM {
				p = pick{cn: cn, refs: []ref{set.add(opts.config(), prof, grid, runner.RegDRAM(runner.DefaultDRAMCap), false)}}
			} else {
				var err error
				p, err = set.addConfig(opts.config(), prof, grid, cn)
				if err != nil {
					return nil, err
				}
			}
			cells = append(cells, cell{name, cn, p})
		}
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}
	baseBytes := map[string]int64{}
	for _, c := range cells {
		r := c.p.best(runs)
		if c.cn == CfgBaseline {
			baseBytes[c.bench] = r.Metrics.DRAMBytes()
		}
		res.Traffic[c.bench][c.cn] = float64(r.Metrics.DRAMBytes()) / float64(baseBytes[c.bench])
		res.ContextBytes[c.bench][c.cn] = r.Metrics.DRAMContextBytes
	}
	return res, nil
}

// Render prints normalized traffic.
func (r *Figure15Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "Baseline", "VT", "Reg+DRAM", "VT+RegMutex", "FineReg"}}
	for _, b := range Figure15Benches {
		vals := make([]any, 0, 5)
		for _, cn := range StandardConfigs() {
			vals = append(vals, r.Traffic[b][cn])
		}
		t.AddRow(b, vals...)
	}
	return "Figure 15. Off-chip memory traffic normalized to baseline\n" + t.String()
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
	for _, cn := range s.Configs {
		var ratios []float64
		var comp [6]float64
		for _, b := range s.Order {
			e := s.Runs[b][cn].Energy
			base := s.Runs[b][CfgBaseline].Energy
			ratios = append(ratios, e.Total()/base.Total())
			comp[0] += e.DRAMDyn
			comp[1] += e.RFDyn
			comp[2] += e.OthersDyn
			comp[3] += e.Leakage
			comp[4] += e.FineRegLog
			comp[5] += e.CTASwitch
		}
		res.Norm[cn] = stats.Geomean(ratios)
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

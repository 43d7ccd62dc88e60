package experiments

import (
	"fmt"
	"slices"

	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/stats"
)

// ---- Table II ----

// TableIIRow describes one benchmark's classification.
type TableIIRow struct {
	Abbrev, Name, Suite string
	Class               kernels.Type
	Limiter             kernels.Limiter
	OccupancyCTAs       int
}

// TableIIResult is the benchmark table with the occupancy limiter that
// produced each classification.
type TableIIResult struct{ Rows []TableIIRow }

// TableII reproduces the benchmark classification of Table II under the
// Table I per-SM limits.
func TableII() *TableIIResult {
	res := &TableIIResult{}
	for _, name := range kernels.Names() {
		p, err := kernels.ProfileByName(name)
		if err != nil {
			panic(err) // Names() and ProfileByName share one table
		}
		ctas, lim := p.Occupancy(tableI.Limits())
		res.Rows = append(res.Rows, TableIIRow{
			Abbrev: p.Abbrev, Name: p.Name, Suite: p.Suite,
			Class: p.Class, Limiter: lim, OccupancyCTAs: ctas,
		})
	}
	return res
}

// Render prints the table.
func (r *TableIIResult) Render() string {
	t := &stats.Table{Header: []string{"bench", "application", "suite", "class", "limiter", "CTAs/SM"}}
	for _, row := range r.Rows {
		t.AddRow(row.Abbrev, row.Name, row.Suite, row.Class.String(), string(row.Limiter), row.OccupancyCTAs)
	}
	return "Table II. Benchmark applications and their baseline scheduling limit\n" + t.String()
}

// ---- Figure 2 ----

// Figure2Row holds one benchmark's speedups under scaled resources.
type Figure2Row struct {
	Bench string
	Class kernels.Type
	// Speedups over the unscaled baseline, indexed like Figure2Labels.
	Speedup [6]float64
}

// Figure2Labels names the six scaled configurations of Figure 2.
var Figure2Labels = [6]string{
	"Sched x1.5", "Sched x2", "Mem x1.5", "Mem x2", "Sched+Mem x1.5", "Sched+Mem x2",
}

// Figure2Result reports performance sensitivity to scheduling resources vs
// on-chip memory, the Type-S/Type-R motivation experiment.
type Figure2Result struct {
	Rows []Figure2Row
	// TypeSMean and TypeRMean are the per-class geometric means.
	TypeSMean, TypeRMean [6]float64
}

// Figure2 runs every benchmark on the baseline policy with scheduling
// resources and/or on-chip memory scaled by 1.5x and 2x.
func Figure2(opts Options) (*Figure2Result, error) {
	factors := [6][2]float64{{1.5, 1}, {2, 1}, {1, 1.5}, {1, 2}, {1.5, 1.5}, {2, 2}} // {sched, mem}
	cols := []column{baseline}
	for i, f := range factors {
		cols = append(cols, scaled(Figure2Labels[i], f[0], f[1]))
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Rows: make([]Figure2Row, len(m.benches))}
	for b, name := range m.benches {
		res.Rows[b] = Figure2Row{Bench: name, Class: classOf(name)}
	}
	for i := range factors {
		for b, v := range m.ratio(i+1, 0, ipc) {
			res.Rows[b].Speedup[i] = v
		}
		mean := m.means(i+1, 0, ipc)
		res.TypeSMean[i], res.TypeRMean[i] = mean[1], mean[2]
	}
	return res, nil
}

// Render prints per-benchmark speedups and the per-class means.
func (r *Figure2Result) Render() string {
	t := &stats.Table{Header: append([]string{"bench"}, Figure2Labels[:]...)}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%s(%s)", row.Bench, row.Class), anys(row.Speedup[:])...)
	}
	t.AddRow("Type-S mean", anys(r.TypeSMean[:])...)
	t.AddRow("Type-R mean", anys(r.TypeRMean[:])...)
	return "Figure 2. Speedup from scaling scheduling resources vs on-chip memory\n" + t.String()
}

// ---- Figure 3 ----

// Figure3Row is one benchmark's per-CTA on-chip cost.
type Figure3Row struct {
	Bench                string
	RegBytes, ShmemBytes int
}

// Figure3Result reports the memory overhead of scheduling one more CTA.
type Figure3Result struct {
	Rows []Figure3Row
	// RegShare is the register fraction of total overhead across the
	// suite (the paper reports 88.7%).
	RegShare float64
}

// Figure3 computes the static per-CTA register + shared-memory overhead.
func Figure3() *Figure3Result {
	res := &Figure3Result{}
	var reg, tot float64
	for _, name := range kernels.Names() {
		p, _ := kernels.ProfileByName(name)
		res.Rows = append(res.Rows, Figure3Row{
			Bench: name, RegBytes: p.RegBytesPerCTA(), ShmemBytes: p.SharedMem,
		})
		reg += float64(p.RegBytesPerCTA())
		tot += float64(p.CTAOverheadBytes())
	}
	res.RegShare = reg / tot
	return res
}

// Render prints the overhead table.
func (r *Figure3Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "Reg KB", "Shmem KB", "total KB"}}
	for _, row := range r.Rows {
		t.AddRow(row.Bench,
			float64(row.RegBytes)/1024, float64(row.ShmemBytes)/1024,
			float64(row.RegBytes+row.ShmemBytes)/1024)
	}
	return fmt.Sprintf("Figure 3. Per-CTA on-chip overhead (registers account for %.1f%%)\n%s",
		100*r.RegShare, t.String())
}

// ---- Figure 4 ----

// Figure4Result is the Convolution Separable case study: Baseline,
// Full RF (Virtual Thread-like), Full RF + DRAM (Zorua-like) and ideal
// hardware.
type Figure4Result struct {
	Labels        []string
	NormPerf      []float64
	ActiveThreads []float64
}

// Figure4 runs the CS benchmark under the four Section III-B setups.
func Figure4(opts Options) (*Figure4Result, error) {
	opts.Benchmarks = []string{"CS"}
	m, err := opts.matrix(baseline,
		column{label: "Full RF", spec: runner.VirtualThread()},
		column{label: "Full RF+DRAM", cn: CfgRegDRAM},
		scaled("Ideal", 8, 8))
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Labels: labels(m.cols)}
	for c, r := range m.runs[0] {
		res.NormPerf = append(res.NormPerf, m.ratio(c, 0, ipc)[0])
		res.ActiveThreads = append(res.ActiveThreads, r.Metrics.AvgActiveThreads)
	}
	return res, nil
}

// Render prints the case-study bars.
func (r *Figure4Result) Render() string {
	t := &stats.Table{Header: []string{"config", "norm perf", "active threads/SM"}}
	for i, l := range r.Labels {
		t.AddRow(l, r.NormPerf[i], r.ActiveThreads[i])
	}
	return "Figure 4. CS case study: register-file relaxations vs ideal hardware\n" + t.String()
}

// ---- Figure 5 ----

// Figure5Row summarizes one benchmark's register-usage windows.
type Figure5Row struct {
	Bench           string
	Min, Mean, Max  float64
	WindowsObserved int
}

// Figure5Result reports the fraction of allocated registers actually
// accessed per 1000-instruction window.
type Figure5Result struct {
	Rows []Figure5Row
	// MeanUsage is the suite-wide average (paper: 55.3%).
	MeanUsage float64
}

// Figure5 runs every benchmark on the baseline with register-usage
// tracking enabled.
func Figure5(opts Options) (*Figure5Result, error) {
	m, err := opts.matrix(column{spec: runner.Baseline(), trackReg: true})
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{}
	var all []float64
	for b, name := range m.benches {
		r := m.runs[b][0]
		row := Figure5Row{Bench: name, WindowsObserved: len(r.Windows)}
		if len(r.Windows) > 0 {
			row.Min, row.Mean, row.Max = slices.Min(r.Windows), stats.Mean(r.Windows), slices.Max(r.Windows)
		}
		res.Rows = append(res.Rows, row)
		all = append(all, r.Windows...)
	}
	res.MeanUsage = stats.Mean(all)
	return res, nil
}

// Render prints per-benchmark usage bounds.
func (r *Figure5Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "min %", "mean %", "max %", "windows"}}
	for _, row := range r.Rows {
		t.AddRow(row.Bench, 100*row.Min, 100*row.Mean, 100*row.Max, row.WindowsObserved)
	}
	return fmt.Sprintf("Figure 5. Register file usage per 1000-instruction window (suite mean %.1f%%)\n%s",
		100*r.MeanUsage, t.String())
}

// ---- Table III ----

// TableIIIResult reports the average cycles from a CTA's first issue to
// its first complete stall.
type TableIIIResult struct {
	Cycles map[string]float64
}

// TableIII measures CTA time-to-full-stall on the baseline.
func TableIII(opts Options) (*TableIIIResult, error) {
	m, err := opts.matrix(baseline)
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{Cycles: map[string]float64{}}
	for b, name := range m.benches {
		res.Cycles[name] = m.runs[b][0].Metrics.CyclesToFirstStall
	}
	return res, nil
}

// Render prints the stall-latency table.
func (r *TableIIIResult) Render() string {
	t := &stats.Table{Header: []string{"app", "# cycles"}}
	for _, k := range stats.SortedKeys(r.Cycles) {
		t.AddRow(k, fmt.Sprintf("%.0f", r.Cycles[k]))
	}
	return "Table III. Average CTA execution time until complete stall\n" + t.String()
}

package experiments

import (
	"finereg/internal/energy"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// This file is the experiments layer's bridge to the run engine
// (internal/runner): every Figure*/Table* function declares its
// simulations as one benchmarks × columns matrix, which submits the whole
// grid as one batch, and then assembles its tables from the cells. The
// engine parallelizes and dedups; results are indexed by declaration, so
// tables render byte-identically at any worker count.

// engine returns the configured run engine, or a fresh default (GOMAXPROCS
// workers, no cache) when none was set. A fresh engine still collapses
// duplicate points within one batch via in-flight tracking.
func (o Options) engine() *runner.Engine {
	if o.Runner != nil {
		return o.Runner
	}
	return &runner.Engine{}
}

// column is one machine/policy configuration every benchmark of a matrix
// runs under: a paper configuration (cn — its tuning candidates, resolved to
// the best) or, with cn empty, the fixed policy spec.
type column struct {
	label string
	cn    ConfigName
	spec  runner.PolicySpec
	// sms, when non-zero, runs the column on a machine of that many SMs with
	// the grid scaled along (Options.resized); the profile stays the suite
	// machine's.
	sms int
	// edit, when set, adjusts the machine (and may read or adjust the
	// profile) on top of Options.config and Options.profile.
	edit func(*gpu.Config, *kernels.Profile)
	// trackReg records Figure 5's register-usage windows; stalls attaches
	// the stall-attribution aggregator (the engine verifies the accounting
	// partition per job).
	trackReg, stalls bool
}

// baseline is the column most figures normalize against: the Table I
// machine under the baseline policy.
var baseline = column{label: string(CfgBaseline), spec: runner.Baseline()}

// paperCols returns one tuned column per configuration, labelled by it.
func paperCols(cns []ConfigName) []column {
	cols := make([]column, len(cns))
	for i, cn := range cns {
		cols[i] = column{label: string(cn), cn: cn}
	}
	return cols
}

// scaled returns a baseline column whose SM has its scheduling resources
// multiplied by sched and its on-chip memory by mem.
func scaled(label string, sched, mem float64) column {
	return column{label: label, spec: runner.Baseline(), edit: func(cfg *gpu.Config, _ *kernels.Profile) {
		scaleSM(&cfg.SM, sched, mem)
	}}
}

// scaleSM multiplies the SM's scheduling resources (CTA, warp and thread
// slots) by sched and its on-chip memory (register file, shared memory) by
// mem.
func scaleSM(c *sm.Config, sched, mem float64) {
	c.MaxCTAs = int(float64(c.MaxCTAs) * sched)
	c.MaxWarps = int(float64(c.MaxWarps) * sched)
	c.MaxThreads = int(float64(c.MaxThreads) * sched)
	c.RegFileBytes = int(float64(c.RegFileBytes) * mem)
	c.SharedMemBytes = int(float64(c.SharedMemBytes) * mem)
}

// anys spreads values into a stats.Table row.
func anys(xs []float64) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// labels returns the column labels, for table headers.
func labels(cols []column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.label
	}
	return out
}

// matrix holds the outcome of a benchmarks × columns grid.
type matrix struct {
	benches []string
	cols    []column
	runs    [][]*Run // [bench][col]
}

// matrix runs every benchmark of the suite under every column as one job
// batch. A batch with failures aborts with the aggregated error — matching
// the historical fail-fast behaviour of the serial harness — but everything
// that could run has run, so a retry after a fix hits the cache for the
// survivors.
func (o Options) matrix(cols ...column) (*matrix, error) {
	m := &matrix{benches: o.benchNames(), cols: cols}
	specs := make([][]runner.PolicySpec, len(cols))
	for c, col := range cols {
		var err error
		if specs[c], err = col.specs(); err != nil {
			return nil, err
		}
	}
	var jobs []*runner.Job
	picks := make([][]pick, len(m.benches)) // [bench][col]
	for b, name := range m.benches {
		prof, err := o.profile(name)
		if err != nil {
			return nil, err
		}
		for c, col := range cols {
			co := o
			if col.sms != 0 {
				co = o.resized(col.sms)
			}
			cfg, p, grid := co.config(), prof, co.grid(&prof)
			if col.edit != nil {
				col.edit(&cfg, &p)
			}
			pk := pick{cn: col.cn}
			for _, spec := range specs[c] {
				pk.refs = append(pk.refs, len(jobs))
				jobs = append(jobs, &runner.Job{
					Cfg: cfg, Profile: p, Grid: grid, Policy: spec, TrackReg: col.trackReg, Stalls: col.stalls,
				})
			}
			picks[b] = append(picks[b], pk)
		}
	}
	batch := o.engine().Run(jobs)
	if err := batch.Err(); err != nil {
		return nil, err
	}
	// The energy estimate is a pure function of metrics and machine size.
	runs := make([]*Run, len(batch.Results))
	for i, res := range batch.Results {
		runs[i] = &Run{
			Metrics: res.Metrics,
			Energy:  energy.Estimate(res.Metrics, jobs[i].Cfg.NumSMs, energy.DefaultCoefficients()),
			Windows: res.Windows,
		}
	}
	for _, pks := range picks {
		row := make([]*Run, len(cols))
		for c, pk := range pks {
			row[c] = pk.best(runs)
		}
		m.runs = append(m.runs, row)
	}
	return m, nil
}

// ratio returns metric(col)/metric(base) per benchmark, in suite order.
func (m *matrix) ratio(col, base int, metric func(*Run) float64) []float64 {
	out := make([]float64, len(m.runs))
	for b, row := range m.runs {
		out[b] = stats.Speedup(metric(row[col]), metric(row[base]))
	}
	return out
}

// means returns the overall, Type-S and Type-R geometric means of
// metric(col)/metric(base).
func (m *matrix) means(col, base int, metric func(*Run) float64) [3]float64 {
	all := m.ratio(col, base, metric)
	var s, r []float64
	for b, v := range all {
		if classOf(m.benches[b]) == kernels.TypeS {
			s = append(s, v)
		} else {
			r = append(r, v)
		}
	}
	return [3]float64{stats.Geomean(all), stats.Geomean(s), stats.Geomean(r)}
}

func ipc(r *Run) float64          { return r.Metrics.IPC() }
func residentCTAs(r *Run) float64 { return r.Metrics.AvgResidentCTAs }

// classOf returns a benchmark's Type.
func classOf(name string) kernels.Type {
	p, err := kernels.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p.Class
}

// pick is a deferred best-of selection over tuning candidates of one
// configuration (the paper's per-application tuning of Reg+DRAM and
// VT+RegMutex). For single-candidate columns it is a plain lookup.
type pick struct {
	cn   ConfigName
	refs []int // indices into the batch
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

// specs returns the policies the column runs: the fixed spec, or the
// configuration's tuning candidates when the paper tunes it and its default
// operating point otherwise.
func (c column) specs() ([]runner.PolicySpec, error) {
	if c.cn == "" {
		return []runner.PolicySpec{c.spec}, nil
	}
	if specs := tuned[c.cn]; specs != nil {
		return specs, nil
	}
	spec, err := specFor(c.cn)
	return []runner.PolicySpec{spec}, err
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

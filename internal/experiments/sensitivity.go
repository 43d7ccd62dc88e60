package experiments

import (
	"fmt"

	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/runner"
	"finereg/internal/stats"
)

// ---- Figure 17: ACRF/PCRF split sensitivity ----

// SplitKB is one ACRF/PCRF partition of the 256 KB register file.
type SplitKB struct{ ACRF, PCRF int }

// Figure17Splits are the partitions the paper sweeps.
var Figure17Splits = []SplitKB{
	{64, 192}, {96, 160}, {128, 128}, {160, 96}, {192, 64},
}

// Figure17Result reports performance and TLP across register-file splits.
type Figure17Result struct {
	Splits []SplitKB
	// NormPerf[i] is the geomean IPC of split i normalized to baseline.
	NormPerf []float64
	// CTARatio[i] is the geomean resident-CTA ratio vs baseline;
	// ActiveShare[i] the fraction of resident CTAs that are active.
	CTARatio, ActiveShare []float64
}

// Figure17 sweeps the ACRF/PCRF partition over the benchmark suite.
func Figure17(opts Options) (*Figure17Result, error) {
	res := &Figure17Result{Splits: Figure17Splits}
	set := opts.newSet()
	baseRef := map[string]ref{}
	for _, name := range opts.benchNames() {
		prof, err := opts.profile(name)
		if err != nil {
			return nil, err
		}
		baseRef[name] = set.add(opts.config(), prof, opts.grid(&prof), runner.Baseline(), false)
	}
	splitRef := map[SplitKB]map[string]ref{}
	for _, split := range Figure17Splits {
		splitRef[split] = map[string]ref{}
		for _, name := range opts.benchNames() {
			prof, err := opts.profile(name)
			if err != nil {
				return nil, err
			}
			splitRef[split][name] = set.add(opts.config(), prof, opts.grid(&prof),
				runner.FineReg(split.ACRF<<10, split.PCRF<<10), false)
		}
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}
	for _, split := range Figure17Splits {
		var perf, ctas, share []float64
		for _, name := range opts.benchNames() {
			base := runs[baseRef[name]]
			r := runs[splitRef[split][name]]
			perf = append(perf, stats.Speedup(r.Metrics.IPC(), base.Metrics.IPC()))
			ctas = append(ctas, stats.Speedup(r.Metrics.AvgResidentCTAs, base.Metrics.AvgResidentCTAs))
			if r.Metrics.AvgResidentCTAs > 0 {
				share = append(share, r.Metrics.AvgActiveCTAs/r.Metrics.AvgResidentCTAs)
			}
		}
		res.NormPerf = append(res.NormPerf, stats.Geomean(perf))
		res.CTARatio = append(res.CTARatio, stats.Geomean(ctas))
		res.ActiveShare = append(res.ActiveShare, stats.Mean(share))
	}
	return res, nil
}

// Best returns the index of the best-performing split.
func (r *Figure17Result) Best() int {
	best := 0
	for i, p := range r.NormPerf {
		if p > r.NormPerf[best] {
			best = i
		}
	}
	return best
}

// Render prints the sensitivity sweep.
func (r *Figure17Result) Render() string {
	t := &stats.Table{Header: []string{"ACRF/PCRF", "norm perf", "CTA ratio", "active share"}}
	for i, s := range r.Splits {
		t.AddRow(fmt.Sprintf("%dKB/%dKB", s.ACRF, s.PCRF), r.NormPerf[i], r.CTARatio[i], r.ActiveShare[i])
	}
	b := r.Splits[r.Best()]
	return fmt.Sprintf("Figure 17. ACRF/PCRF split sensitivity (best: %dKB/%dKB)\n%s", b.ACRF, b.PCRF, t.String())
}

// ---- Figure 18: SM scaling ----

// Figure18Benches is the mixed-class subset used for the scaling study
// (full-suite runs at 128 SMs would dominate the harness runtime without
// changing the trend).
var Figure18Benches = []string{"CS", "FD", "SY2", "HS", "LB", "LI"}

// Figure18Point is one machine size's outcome.
type Figure18Point struct {
	SMs int
	// FineRegSpeedup and ResourceSpeedup are geomean IPC vs the baseline
	// at the same SM count.
	FineRegSpeedup, ResourceSpeedup float64
	// OverheadMB is the extra on-chip storage Baseline+Resource needs to
	// match FineReg's CTA count.
	OverheadMB float64
}

// Figure18Result is the SM-scaling study.
type Figure18Result struct{ Points []Figure18Point }

// Figure18 compares FineReg against a resource-scaled baseline
// (Baseline+Resource) across machine sizes. Workloads scale with the
// machine so per-SM pressure is constant.
func Figure18(opts Options, smCounts []int) (*Figure18Result, error) {
	if len(smCounts) == 0 {
		smCounts = []int{16, 32, 64, 128}
	}
	res := &Figure18Result{}

	// Phase 1: baseline and FineReg at every machine size. The
	// Baseline+Resource configuration is derived from these results, so it
	// forms a second batch.
	type point struct {
		n             int
		o             Options
		prof          kernels.Profile
		grid          int
		base, fine    ref
		big           ref // phase 2
		k             float64
		overheadBytes float64
	}
	set := opts.newSet()
	var points []point
	for _, n := range smCounts {
		o := opts
		o.SMs = n
		o.GridScale = opts.GridScale * float64(n) / float64(opts.SMs)
		o.Benchmarks = Figure18Benches
		for _, name := range o.benchNames() {
			prof, err := opts.profile(name)
			if err != nil {
				return nil, err
			}
			grid := o.grid(&prof)
			points = append(points, point{
				n: n, o: o, prof: prof, grid: grid,
				base: set.add(o.config(), prof, grid, runner.Baseline(), false),
				fine: set.add(o.config(), prof, grid, runner.FineRegDefault(), false),
			})
		}
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}

	// Phase 2: Baseline+Resource — scale scheduling and memory so the
	// baseline can hold as many CTAs as FineReg kept resident.
	set2 := opts.newSet()
	for i := range points {
		p := &points[i]
		base, fine := runs[p.base], runs[p.fine]
		k := fine.Metrics.AvgResidentCTAs / base.Metrics.AvgResidentCTAs
		if k < 1 {
			k = 1
		}
		p.k = k
		cfg := p.o.config()
		cfg.SM.MaxCTAs = int(float64(cfg.SM.MaxCTAs)*k) + 1
		cfg.SM.MaxWarps = int(float64(cfg.SM.MaxWarps)*k) + 1
		cfg.SM.MaxThreads = int(float64(cfg.SM.MaxThreads)*k) + 1
		cfg.SM.RegFileBytes = int(float64(cfg.SM.RegFileBytes) * k)
		cfg.SM.SharedMemBytes = int(float64(cfg.SM.SharedMemBytes) * k)
		// The paper's Baseline+Resource provisions everything the
		// extra CTAs need, including first-level cache capacity.
		unit := cfg.SM.L1Ways * 128
		cfg.SM.L1Bytes = int(float64(cfg.SM.L1Bytes)*k) / unit * unit
		p.big = set2.add(cfg, p.prof, p.grid, runner.Baseline(), false)
		p.overheadBytes = (k - 1) * float64((256+96+48)<<10) * float64(p.n)
	}
	runs2, err := set2.run()
	if err != nil {
		return nil, err
	}

	for _, n := range smCounts {
		var fr, rs []float64
		var overheadBytes float64
		var benches int
		for _, p := range points {
			if p.n != n {
				continue
			}
			base := runs[p.base]
			fr = append(fr, stats.Speedup(runs[p.fine].Metrics.IPC(), base.Metrics.IPC()))
			rs = append(rs, stats.Speedup(runs2[p.big].Metrics.IPC(), base.Metrics.IPC()))
			overheadBytes += p.overheadBytes
			benches++
		}
		res.Points = append(res.Points, Figure18Point{
			SMs:             n,
			FineRegSpeedup:  stats.Geomean(fr),
			ResourceSpeedup: stats.Geomean(rs),
			OverheadMB:      overheadBytes / float64(benches) / (1 << 20),
		})
	}
	return res, nil
}

// Render prints the scaling table.
func (r *Figure18Result) Render() string {
	t := &stats.Table{Header: []string{"SMs", "FineReg speedup", "Baseline+Resource speedup", "overhead MB"}}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.SMs), p.FineRegSpeedup, p.ResourceSpeedup, p.OverheadMB)
	}
	return "Figure 18. FineReg vs resource-scaled baseline across machine sizes\n" + t.String()
}

// ---- Figure 19: unified on-chip local memory ----

// UMBytes is the unified pool size: PCRF (128 KB) + shared memory (96 KB)
// + L1 (48 KB), per the paper's Section VI-G3.
const UMBytes = 272 << 10

// Figure19Result compares UM-only, VT+UM and FineReg+UM.
type Figure19Result struct {
	Order []string
	// Speedup[bench] = {UM, VT+UM, FineReg+UM} IPC vs the plain baseline.
	Speedup map[string][3]float64
	// Mean is the geomean of each column.
	Mean [3]float64
}

// Figure19Labels names the three UM configurations.
var Figure19Labels = [3]string{"UM", "VT+UM", "FineReg+UM"}

// Figure19 evaluates the unified on-chip memory integration: each kernel's
// unused shared-memory share of the 272 KB pool becomes extra L1 capacity.
func Figure19(opts Options) (*Figure19Result, error) {
	res := &Figure19Result{Speedup: map[string][3]float64{}}
	type row struct {
		name string
		base ref
		um   [3]ref
	}
	set := opts.newSet()
	var rows []row
	for _, name := range opts.benchNames() {
		prof, err := opts.profile(name)
		if err != nil {
			return nil, err
		}
		grid := opts.grid(&prof)
		umCfg := opts.config()
		umCfg.SM.L1Bytes = umL1Bytes(&prof, umCfg.SM.L1Ways)

		r := row{name: name, base: set.add(opts.config(), prof, grid, runner.Baseline(), false)}
		for i, pol := range []runner.PolicySpec{runner.Baseline(), runner.VirtualThread(), runner.FineRegDefault()} {
			r.um[i] = set.add(umCfg, prof, grid, pol, false)
		}
		rows = append(rows, r)
	}
	runs, err := set.run()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		base := runs[r.base]
		var trip [3]float64
		for i := 0; i < 3; i++ {
			trip[i] = stats.Speedup(runs[r.um[i]].Metrics.IPC(), base.Metrics.IPC())
		}
		res.Speedup[r.name] = trip
		res.Order = append(res.Order, r.name)
	}
	for i := 0; i < 3; i++ {
		var v []float64
		for _, b := range res.Order {
			v = append(v, res.Speedup[b][i])
		}
		res.Mean[i] = stats.Geomean(v)
	}
	return res, nil
}

// umL1Bytes computes the effective L1 under the unified pool: the PCRF
// slice stays register storage, the kernel's shared-memory demand (per-CTA
// usage times baseline occupancy) is reserved, and the remainder backs the
// L1 — never less than the baseline 48 KB.
func umL1Bytes(p *kernels.Profile, ways int) int {
	limits := kernels.Limits{
		MaxCTAs: 32, MaxWarps: 64, MaxThreads: 2048,
		RegFileBytes: 256 << 10, SharedMemBytes: 96 << 10,
	}
	occ, _ := p.Occupancy(limits)
	shmem := p.SharedMem * occ
	if shmem > 96<<10 {
		shmem = 96 << 10
	}
	l1 := UMBytes - 128<<10 - shmem
	if l1 < 48<<10 {
		l1 = 48 << 10
	}
	unit := ways * mem.LineBytes
	return l1 / unit * unit
}

// Render prints the UM comparison.
func (r *Figure19Result) Render() string {
	t := &stats.Table{Header: []string{"bench", "UM", "VT+UM", "FineReg+UM"}}
	for _, b := range r.Order {
		s := r.Speedup[b]
		t.AddRow(b, s[0], s[1], s[2])
	}
	out := "Figure 19. Unified on-chip local memory (speedup vs baseline)\n" + t.String()
	out += fmt.Sprintf("Geomean: UM %.3f, VT+UM %.3f, FineReg+UM %.3f\n", r.Mean[0], r.Mean[1], r.Mean[2])
	return out
}

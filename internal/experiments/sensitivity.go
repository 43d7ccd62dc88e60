package experiments

import (
	"fmt"

	"finereg/internal/gpu"
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
	cols := []column{baseline}
	for _, s := range Figure17Splits {
		cols = append(cols, column{spec: runner.FineReg(s.ACRF<<10, s.PCRF<<10)})
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}
	res := &Figure17Result{Splits: Figure17Splits}
	for c := 1; c < len(cols); c++ {
		var share []float64
		for _, row := range m.runs {
			if r := row[c].Metrics; r.AvgResidentCTAs > 0 {
				share = append(share, r.AvgActiveCTAs/r.AvgResidentCTAs)
			}
		}
		res.NormPerf = append(res.NormPerf, stats.Geomean(m.ratio(c, 0, ipc)))
		res.CTARatio = append(res.CTARatio, stats.Geomean(m.ratio(c, 0, residentCTAs)))
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

// figure18Sizes are the machine sizes swept from a base of sms SMs: × 1, 2
// and 4, and × 8 from the paper's 16 SMs up (128 SMs at full scale; a
// shrunken machine stops at 4× to stay test-sized).
func figure18Sizes(sms int) []int {
	sizes := []int{sms, 2 * sms, 4 * sms}
	if sms >= 16 {
		sizes = append(sizes, 8*sms)
	}
	return sizes
}

// Figure18 compares FineReg against a resource-scaled baseline
// (Baseline+Resource) across machine sizes. Workloads scale with the
// machine so per-SM pressure is constant. nil smCounts sweeps
// figure18Sizes(opts.SMs).
func Figure18(opts Options, smCounts []int) (*Figure18Result, error) {
	if len(smCounts) == 0 {
		smCounts = figure18Sizes(opts.SMs)
	}
	opts.Benchmarks = Figure18Benches

	// Phase 1: baseline (column 2i) and FineReg (2i+1) at every machine size.
	var cols []column
	for _, n := range smCounts {
		cols = append(cols, column{spec: runner.Baseline(), sms: n}, column{spec: runner.FineRegDefault(), sms: n})
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}

	// Phase 2: Baseline+Resource — scale scheduling and memory so the
	// baseline can hold as many CTAs as FineReg kept resident. It is derived
	// from phase 1's results, so it forms a second batch.
	onChip := tableI.RegFileBytes + tableI.SharedMemBytes + tableI.L1Bytes
	res := &Figure18Result{Points: make([]Figure18Point, len(smCounts))}
	big := make([]column, len(smCounts))
	for i, n := range smCounts {
		k := map[string]float64{}
		var overheadBytes float64
		for b, r := range m.ratio(2*i+1, 2*i, residentCTAs) {
			k[m.benches[b]] = max(1, r)
			overheadBytes += (max(1, r) - 1) * float64(onChip) * float64(n)
		}
		res.Points[i] = Figure18Point{
			SMs:            n,
			FineRegSpeedup: stats.Geomean(m.ratio(2*i+1, 2*i, ipc)),
			OverheadMB:     overheadBytes / float64(len(m.benches)) / (1 << 20),
		}
		big[i] = column{spec: runner.Baseline(), sms: n, edit: func(cfg *gpu.Config, p *kernels.Profile) {
			k := k[p.Abbrev]
			scaleSM(&cfg.SM, k, k)
			cfg.SM.MaxCTAs++ // round the scheduling slots up
			cfg.SM.MaxWarps++
			cfg.SM.MaxThreads++
			// The paper's Baseline+Resource provisions everything the
			// extra CTAs need, including first-level cache capacity.
			unit := cfg.SM.L1Ways * mem.LineBytes
			cfg.SM.L1Bytes = int(float64(cfg.SM.L1Bytes)*k) / unit * unit
		}}
	}
	m2, err := opts.matrix(big...)
	if err != nil {
		return nil, err
	}
	for i := range smCounts {
		rs := make([]float64, len(m.benches))
		for b := range rs {
			rs[b] = stats.Speedup(ipc(m2.runs[b][i]), ipc(m.runs[b][2*i]))
		}
		res.Points[i].ResourceSpeedup = stats.Geomean(rs)
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
	cols := []column{baseline}
	for i, pol := range []runner.PolicySpec{runner.Baseline(), runner.VirtualThread(), runner.FineRegDefault()} {
		cols = append(cols, column{label: Figure19Labels[i], spec: pol, edit: func(cfg *gpu.Config, p *kernels.Profile) {
			cfg.SM.L1Bytes = umL1Bytes(p, cfg.SM.L1Ways)
		}})
	}
	m, err := opts.matrix(cols...)
	if err != nil {
		return nil, err
	}
	res := &Figure19Result{Order: m.benches, Speedup: map[string][3]float64{}}
	for i := range res.Mean {
		ratios := m.ratio(i+1, 0, ipc)
		for b, name := range m.benches {
			trip := res.Speedup[name]
			trip[i] = ratios[b]
			res.Speedup[name] = trip
		}
		res.Mean[i] = stats.Geomean(ratios)
	}
	return res, nil
}

// umL1Bytes computes the effective L1 under the unified pool: the PCRF
// slice stays register storage, the kernel's shared-memory demand (per-CTA
// usage times baseline occupancy) is reserved, and the remainder backs the
// L1 — never less than the baseline 48 KB.
func umL1Bytes(p *kernels.Profile, ways int) int {
	occ, _ := p.Occupancy(tableI.Limits())
	shmem := min(p.SharedMem*occ, tableI.SharedMemBytes)
	l1 := max(UMBytes-128<<10-shmem, tableI.L1Bytes)
	unit := ways * mem.LineBytes
	return l1 / unit * unit
}

// Render prints the UM comparison.
func (r *Figure19Result) Render() string {
	t := &stats.Table{Header: append([]string{"bench"}, Figure19Labels[:]...)}
	for _, b := range r.Order {
		s := r.Speedup[b]
		t.AddRow(b, anys(s[:])...)
	}
	l := Figure19Labels
	return "Figure 19. Unified on-chip local memory (speedup vs baseline)\n" + t.String() +
		fmt.Sprintf("Geomean: %s %.3f, %s %.3f, %s %.3f\n", l[0], r.Mean[0], l[1], r.Mean[1], l[2], r.Mean[2])
}

package experiments

import (
	"fmt"

	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/stats"
	"finereg/internal/workload"
)

// This file is the multi-tenant study enabled by the workload subsystem:
// MPS-style static partitioning (gpu.Config.Partitions) lets two kernels
// share one machine's L2 and DRAM while keeping SM-private resources
// disjoint, so the interference a tenant suffers is purely
// memory-hierarchy contention. Each tenant's reference point is its solo
// run on a machine of its partition's size — same SM count, same L2/DRAM
// share — so the slowdown isolates what co-scheduling costs.

// MPSPair names two benchmarks co-scheduled on one partitioned machine.
type MPSPair struct{ A, B string }

// DefaultMPSPairs mixes the classes: a scheduler-limited tenant against a
// register-limited one (the case FineReg's reclaimed registers help), a
// bandwidth-heavy pair, and a compute-heavy pair.
func DefaultMPSPairs() []MPSPair {
	return []MPSPair{{"CS", "LB"}, {"BF", "SG"}, {"MC", "HS"}}
}

// MPSRow is one pair × policy outcome.
type MPSRow struct {
	Pair   string
	Config ConfigName
	// SlowdownA/SlowdownB divide the tenant's solo IPC (on a machine of
	// its partition's size) by its co-running IPC: 1.0 = no interference.
	SlowdownA, SlowdownB float64
	// Stretch divides the co-run's cycle count by the longer of the two
	// solo runs — how much the shared memory hierarchy stretches the
	// makespan past perfect overlap.
	Stretch float64
	// InstrMatch reports that each partition retired exactly its solo
	// run's instruction count (the determinism acceptance check:
	// instruction streams are timing-independent, so contention may move
	// cycles but never instructions).
	InstrMatch bool
}

// MPSResult reports memory-hierarchy interference under MPS-style
// concurrent execution.
type MPSResult struct{ Rows []MPSRow }

// MPS co-schedules each pair on an evenly split machine (half the SMs per
// tenant, shared L2/DRAM) under Baseline and FineReg, with each tenant's
// solo run on a partition-sized machine as the reference. nil pairs uses
// DefaultMPSPairs. Requires an even SM count.
func MPS(opts Options, pairs []MPSPair) (*MPSResult, error) {
	if opts.SMs < 2 || opts.SMs%2 != 0 {
		return nil, fmt.Errorf("experiments: MPS needs an even SM count, got %d", opts.SMs)
	}
	if pairs == nil {
		pairs = DefaultMPSPairs()
	}
	half := opts.SMs / 2
	ho := opts.resized(half)
	configs := []ConfigName{CfgBaseline, CfgFineReg}

	// Per pair × config: tenant A solo, tenant B solo, and the co-run.
	type probe struct {
		pair             MPSPair
		cn               ConfigName
		soloA, soloB, co int
	}
	var probes []probe
	var jobs []*runner.Job
	add := func(j *runner.Job) int {
		jobs = append(jobs, j)
		return len(jobs) - 1
	}
	for _, pr := range pairs {
		profA, err := kernels.ProfileByName(pr.A)
		if err != nil {
			return nil, err
		}
		profB, err := kernels.ProfileByName(pr.B)
		if err != nil {
			return nil, err
		}
		gridA, gridB := ho.grid(&profA), ho.grid(&profB)
		for _, cn := range configs {
			pol, err := specFor(cn)
			if err != nil {
				return nil, err
			}
			co := opts.config()
			co.Partitions = []int{half, half}
			probes = append(probes, probe{pair: pr, cn: cn,
				soloA: add(&runner.Job{Cfg: ho.config(), Profile: profA, Grid: gridA, Policy: pol}),
				soloB: add(&runner.Job{Cfg: ho.config(), Profile: profB, Grid: gridB, Policy: pol}),
				co: add(&runner.Job{Cfg: co, Policy: pol, Programs: []workload.Program{
					{Bench: pr.A, Grid: gridA}, {Bench: pr.B, Grid: gridB},
				}}),
			})
		}
	}

	b := opts.engine().Run(jobs)
	if err := b.Err(); err != nil {
		return nil, err
	}
	res := &MPSResult{}
	for _, p := range probes {
		sa, sb := b.Results[p.soloA].Metrics, b.Results[p.soloB].Metrics
		co := b.Results[p.co]
		if len(co.Segments) != 2 {
			return nil, fmt.Errorf("experiments: co-run of %s|%s returned %d segments", p.pair.A, p.pair.B, len(co.Segments))
		}
		ca, cb := co.Segments[0], co.Segments[1]
		longest := sa.Cycles
		if sb.Cycles > longest {
			longest = sb.Cycles
		}
		res.Rows = append(res.Rows, MPSRow{
			Pair:       p.pair.A + "|" + p.pair.B,
			Config:     p.cn,
			SlowdownA:  stats.Speedup(sa.IPC(), ca.IPC()),
			SlowdownB:  stats.Speedup(sb.IPC(), cb.IPC()),
			Stretch:    float64(co.Metrics.Cycles) / float64(longest),
			InstrMatch: ca.Instructions == sa.Instructions && cb.Instructions == sb.Instructions,
		})
	}
	return res, nil
}

// Render prints per-tenant interference and makespan stretch per pair.
func (r *MPSResult) Render() string {
	t := &stats.Table{Header: []string{"pair/config", "slowA", "slowB", "stretch", "instr"}}
	for _, row := range r.Rows {
		mark := "=solo"
		if !row.InstrMatch {
			mark = "DRIFT"
		}
		t.AddRow(fmt.Sprintf("%s(%s)", row.Pair, row.Config),
			row.SlowdownA, row.SlowdownB, row.Stretch, mark)
	}
	return "MPS co-scheduling: per-tenant slowdown vs partition-sized solo runs\n" + t.String()
}

// Package finereg is a from-scratch reproduction of "FineReg: Fine-Grained
// Register File Management for Augmenting GPU Throughput" (MICRO 2018): a
// cycle-level GPU simulator whose register file management is pluggable —
// conventional Baseline, Virtual Thread, Reg+DRAM (Zorua-like), VT+RegMutex,
// and the paper's FineReg (ACRF/PCRF split with live-register compaction) —
// together with the compiler liveness analysis FineReg depends on, the
// Table II benchmark suite as synthetic kernels, and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := finereg.DefaultConfig()            // Table I machine (16 SMs)
//	m, err := finereg.RunBenchmark(cfg, "CS", 0, finereg.FineReg())
//	fmt.Println(m.IPC())
//
// The root package is a thin facade; the implementation lives under
// internal/ (isa, liveness, kernels, mem, sm, regfile, core, gpu, energy,
// stats, experiments).
package finereg

import (
	"finereg/internal/energy"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/stats"
)

// Config is the whole-GPU configuration; DefaultConfig matches Table I.
type Config = gpu.Config

// DefaultConfig returns the paper's GTX 980-like machine: 16 SMs at
// 1126 MHz, 64 warps / 2048 threads / 32 CTAs per SM, 4 GTO schedulers,
// 256 KB register file, 96 KB shared memory, 48 KB 8-way L1, 2 MB 8-way
// L2, 352.5 GB/s DRAM.
func DefaultConfig() Config { return gpu.Default() }

// ScaledConfig returns the Table I machine resized to n SMs with shared
// resources (L2, DRAM bandwidth) scaled proportionally.
func ScaledConfig(n int) Config { return gpu.Default().Scale(n) }

// PolicyFactory builds one register-file management policy per SM.
type PolicyFactory = gpu.PolicyFactory

// Metrics carries the counters of one simulated kernel run.
type Metrics = stats.Metrics

// EnergyBreakdown is the Figure 16 component decomposition.
type EnergyBreakdown = energy.Breakdown

// Policy constructors for the paper's five configurations.
var (
	// Baseline is the conventional GPU (no CTA switching).
	Baseline = gpu.Baseline
	// VirtualThread launches CTAs until the register file fills and
	// switches stalled CTAs with ready pending ones [Yoon et al., 45].
	VirtualThread = gpu.VirtualThread
	// RegDRAM adds an off-chip pending pool with DMA'd register contexts
	// (Zorua-like [39]); the argument caps off-chip CTAs per SM.
	RegDRAM = gpu.RegDRAM
	// VTRegMutex merges Virtual Thread with RegMutex's BRS/SRP register
	// time-sharing [17]; the argument is the SRP fraction.
	VTRegMutex = gpu.VTRegMutex
	// FineRegSplit is the paper's policy with an explicit ACRF/PCRF byte
	// split; FineReg uses the default half/half partition.
	FineRegSplit = gpu.FineReg
	FineReg      = gpu.FineRegDefault
)

// Benchmarks returns the Table II benchmark abbreviations (Type-S first).
func Benchmarks() []string { return kernels.Names() }

// BenchmarkProfile returns the static resource profile of one Table II
// benchmark.
func BenchmarkProfile(abbrev string) (kernels.Profile, error) {
	return kernels.ProfileByName(abbrev)
}

// RunBenchmark simulates one Table II benchmark on a GPU built from cfg
// under the given policy. grid <= 0 uses the benchmark's reference
// grid size (sized for the 16-SM machine; scale it down for smaller
// configurations).
func RunBenchmark(cfg Config, bench string, grid int, pf PolicyFactory) (*Metrics, error) {
	prof, err := kernels.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	return RunKernel(cfg, prof, grid, pf)
}

// RunKernel simulates a custom kernel profile (see kernels.Profile for the
// knobs: warps per CTA, registers, shared memory, instruction mix, access
// patterns).
func RunKernel(cfg Config, prof kernels.Profile, grid int, pf PolicyFactory) (*Metrics, error) {
	k, err := kernels.Build(prof, grid)
	if err != nil {
		return nil, err
	}
	g := gpu.New(cfg, pf)
	defer g.Release()
	return g.Run(k)
}

// EstimateEnergy applies the GPUWattch-style event-energy model to a run.
func EstimateEnergy(m *Metrics, numSMs int) EnergyBreakdown {
	return energy.Estimate(m, numSMs, energy.DefaultCoefficients())
}

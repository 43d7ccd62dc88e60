// Package kernels provides the 18 benchmark kernels of the paper's Table II
// as synthetic program generators.
//
// The CUDA originals (Rodinia, Parboil, PolyBench, CUDA SDK) are not
// available in this environment, so each benchmark is reproduced as a
// generator that emits a SASS-like program with the *resource profile* that
// drives the paper's results: registers per thread, threads per CTA, shared
// memory per CTA, loop structure, arithmetic mix, and global-memory access
// pattern/footprint. The profiles are tuned so that, under the Table I
// configuration, each benchmark lands in the paper's Type-S or Type-R
// class, with live-register fractions and stall behaviour in the reported
// ranges (Figure 5, Table III).
package kernels

import (
	"fmt"
	"sort"

	"finereg/internal/isa"
	"finereg/internal/liveness"
)

// Type classifies a benchmark by which resource caps its baseline CTA
// occupancy (paper Section II).
type Type uint8

const (
	// TypeS benchmarks are bounded by scheduling resources (CTA slots,
	// warp slots, thread slots) and leave register file / shared memory
	// capacity unused.
	TypeS Type = iota
	// TypeR benchmarks are bounded by register file or shared memory size
	// before reaching the scheduling limit.
	TypeR
)

// String names the type the way the paper does.
func (t Type) String() string {
	if t == TypeS {
		return "Type-S"
	}
	return "Type-R"
}

// Profile is the static description of one benchmark from which its
// synthetic program is generated.
type Profile struct {
	// Abbrev is the paper's two-letter code (Table II), Name the full
	// benchmark name, Suite its origin suite.
	Abbrev, Name, Suite string
	// Class is the paper's scheduling-limit classification.
	Class Type
	// WarpsPerCTA × 32 = threads per CTA.
	WarpsPerCTA int
	// Regs is the statically allocated register count per thread.
	Regs int
	// Persistent is how many registers stay live across the main loop —
	// the dominant term of the live set at memory-stall PCs.
	Persistent int
	// SharedMem is bytes of shared memory per CTA.
	SharedMem int
	// LoopTrips is the main loop's trip count (dynamic length knob).
	LoopTrips int
	// StreamLoads global loads per iteration walk the large Footprint
	// regions (DRAM-bound); HotLoads hit small reused regions of HotKB
	// working set (cache-resident after warm-up) — real kernels mix both,
	// which sets the bytes-per-instruction ratio and thus how memory-bound
	// the benchmark is.
	StreamLoads, HotLoads int
	// HotKB is the hot-region working set (defaults to 64 KB when zero).
	HotKB int
	// ComputePerIter / SFUPerIter / ShmemPerIter set the rest of the
	// per-iteration instruction mix.
	ComputePerIter, SFUPerIter, ShmemPerIter int
	// Pattern and Stride describe the global access pattern.
	Pattern isa.Pattern
	Stride  int
	// FootprintKB is the global working set per region in KB; it controls
	// the cache hit profile (48 KB L1, 2 MB L2).
	FootprintKB int
	// StorePeriod stores results every k-th iteration (0 = epilogue only).
	StorePeriod int
	// ColdRegs registers are allocated (and touched once in a cold,
	// never-executed-at-runtime guard path) but dead in the hot loop —
	// they model the over-allocation FineReg exploits.
	ColdRegs int
	// GridCTAs is the default grid size at the reference 16-SM machine.
	GridCTAs int
}

// ThreadsPerCTA returns WarpsPerCTA × 32.
func (p *Profile) ThreadsPerCTA() int { return p.WarpsPerCTA * 32 }

// RegBytesPerCTA returns the register file bytes one CTA allocates
// (4 bytes × 32 lanes × Regs × warps).
func (p *Profile) RegBytesPerCTA() int { return p.WarpsPerCTA * p.Regs * 128 }

// CTAOverheadBytes returns the on-chip bytes needed to co-schedule one more
// CTA (registers + shared memory) — the quantity of the paper's Figure 3.
func (p *Profile) CTAOverheadBytes() int { return p.RegBytesPerCTA() + p.SharedMem }

// ScaledGrid is the grid rule every front door shares: the reference
// (16-SM) grid times scale, rounded to nearest, and never below one CTA —
// Build reads a grid of 0 as "use the reference grid", so a scale that
// rounds to zero must not reach it. scale == 0 means sms/16: the workload
// grows with the machine.
func (p *Profile) ScaledGrid(scale float64, sms int) int {
	if scale == 0 {
		scale = float64(sms) / 16
	}
	return max(1, int(float64(p.GridCTAs)*scale+0.5))
}

// Kernel bundles a program with its launch geometry and the compiler's
// liveness information, ready for the simulator. Build and the workload
// loader return a fresh Kernel whose Prog and Live are the program table's
// shared, read-only values (Code).
type Kernel struct {
	Profile Profile
	Prog    *isa.Program
	Live    *liveness.Info
	// GridCTAs is the number of CTAs this launch creates.
	GridCTAs int

	code *Code // the table entry, nil for a literal Kernel
}

// Name returns the benchmark abbreviation.
func (k *Kernel) Name() string { return k.Profile.Abbrev }

// table is the Table II benchmark set. Resource numbers are chosen so the
// baseline occupancy limiter matches the paper's classification under the
// Table I machine (32 CTAs / 64 warps / 2048 threads / 256 KB RF / 96 KB
// shared memory per SM) — see TestClassificationMatchesTableII.
var table = []Profile{
	// ---- Type-S: scheduler-limited ----
	{Abbrev: "BF", Name: "Breadth-First Search", Suite: "Rodinia", Class: TypeS,
		WarpsPerCTA: 3, Regs: 16, Persistent: 4, SharedMem: 0,
		LoopTrips: 12, StreamLoads: 1, HotLoads: 2, ComputePerIter: 8, Pattern: isa.PatRandom, Stride: 8,
		FootprintKB: 8 << 10, GridCTAs: 1536},
	{Abbrev: "BI", Name: "BiCGStab", Suite: "PolyBench", Class: TypeS,
		WarpsPerCTA: 4, Regs: 16, Persistent: 6, SharedMem: 1024,
		LoopTrips: 16, StreamLoads: 1, HotLoads: 1, ComputePerIter: 16, Pattern: isa.PatCoalesced,
		FootprintKB: 16 << 10, GridCTAs: 1024},
	{Abbrev: "CS", Name: "Convolution Separable", Suite: "CUDA SDK", Class: TypeS,
		WarpsPerCTA: 2, Regs: 16, Persistent: 5, SharedMem: 2048,
		LoopTrips: 16, StreamLoads: 1, HotLoads: 1, ComputePerIter: 20, ShmemPerIter: 2,
		Pattern: isa.PatCoalesced, FootprintKB: 8 << 10, GridCTAs: 2048},
	{Abbrev: "FD", Name: "Fluid Dynamics", Suite: "PolyBench", Class: TypeS,
		WarpsPerCTA: 4, Regs: 20, Persistent: 8, SharedMem: 0,
		LoopTrips: 20, StreamLoads: 1, HotLoads: 1, ComputePerIter: 22, Pattern: isa.PatCoalesced,
		FootprintKB: 24 << 10, GridCTAs: 1024},
	{Abbrev: "KM", Name: "Kmeans", Suite: "Rodinia", Class: TypeS,
		WarpsPerCTA: 3, Regs: 16, Persistent: 3, SharedMem: 0,
		LoopTrips: 14, StreamLoads: 1, HotLoads: 2, ComputePerIter: 10, Pattern: isa.PatRandom, Stride: 4,
		FootprintKB: 12 << 10, GridCTAs: 1536},
	{Abbrev: "MC", Name: "Monte Carlo", Suite: "Parboil", Class: TypeS,
		WarpsPerCTA: 2, Regs: 24, Persistent: 4, SharedMem: 0,
		LoopTrips: 24, StreamLoads: 1, ComputePerIter: 12, SFUPerIter: 2,
		Pattern: isa.PatCoalesced, FootprintKB: 8 << 10, ColdRegs: 10, GridCTAs: 2048},
	{Abbrev: "NW", Name: "Needleman-Wunsch", Suite: "Rodinia", Class: TypeS,
		WarpsPerCTA: 2, Regs: 24, Persistent: 3, SharedMem: 2048,
		LoopTrips: 12, StreamLoads: 1, HotLoads: 1, ComputePerIter: 16, ShmemPerIter: 2,
		Pattern: isa.PatCoalesced, FootprintKB: 16 << 10, ColdRegs: 8, GridCTAs: 2048},
	{Abbrev: "ST", Name: "Stencil", Suite: "Parboil", Class: TypeS,
		WarpsPerCTA: 4, Regs: 18, Persistent: 7, SharedMem: 0,
		LoopTrips: 16, StreamLoads: 1, HotLoads: 2, ComputePerIter: 22, Pattern: isa.PatCoalesced,
		FootprintKB: 32 << 10, StorePeriod: 1, GridCTAs: 1024},
	{Abbrev: "SY2", Name: "Symmetric Rank 2k", Suite: "PolyBench", Class: TypeS,
		WarpsPerCTA: 3, Regs: 16, Persistent: 6, SharedMem: 0,
		LoopTrips: 18, StreamLoads: 1, HotLoads: 2, ComputePerIter: 14, Pattern: isa.PatCoalesced,
		FootprintKB: 24 << 10, GridCTAs: 1536},
	// ---- Type-R: register/shared-memory-limited ----
	{Abbrev: "AT", Name: "Transpose Vector Multiply", Suite: "PolyBench", Class: TypeR,
		WarpsPerCTA: 8, Regs: 36, Persistent: 10, SharedMem: 0,
		LoopTrips: 16, StreamLoads: 1, HotLoads: 1, ComputePerIter: 18, Pattern: isa.PatStrided, Stride: 4,
		FootprintKB: 24 << 10, GridCTAs: 512},
	{Abbrev: "CF", Name: "CFD Solver", Suite: "Rodinia", Class: TypeR,
		WarpsPerCTA: 6, Regs: 48, Persistent: 16, SharedMem: 0,
		LoopTrips: 14, StreamLoads: 2, HotLoads: 1, ComputePerIter: 24, Pattern: isa.PatCoalesced,
		FootprintKB: 32 << 10, ColdRegs: 8, GridCTAs: 512},
	{Abbrev: "HS", Name: "Hotspot", Suite: "Rodinia", Class: TypeR,
		WarpsPerCTA: 6, Regs: 36, Persistent: 12, SharedMem: 8 << 10,
		LoopTrips: 12, StreamLoads: 1, HotLoads: 1, ComputePerIter: 16, ShmemPerIter: 3,
		Pattern: isa.PatCoalesced, FootprintKB: 16 << 10, GridCTAs: 512},
	{Abbrev: "LI", Name: "LIBOR", Suite: "GPGPU-Sim", Class: TypeR,
		WarpsPerCTA: 2, Regs: 52, Persistent: 8, SharedMem: 0,
		LoopTrips: 20, StreamLoads: 1, ComputePerIter: 20, SFUPerIter: 1,
		Pattern: isa.PatCoalesced, FootprintKB: 8 << 10, ColdRegs: 24, GridCTAs: 2048},
	{Abbrev: "LB", Name: "Lattice-Boltzmann", Suite: "Parboil", Class: TypeR,
		WarpsPerCTA: 4, Regs: 54, Persistent: 20, SharedMem: 0,
		LoopTrips: 12, StreamLoads: 2, HotLoads: 2, ComputePerIter: 28, Pattern: isa.PatCoalesced,
		FootprintKB: 48 << 10, StorePeriod: 1, GridCTAs: 768},
	{Abbrev: "SG", Name: "SGEMM", Suite: "PolyBench", Class: TypeR,
		WarpsPerCTA: 4, Regs: 48, Persistent: 24, SharedMem: 8 << 10,
		LoopTrips: 24, StreamLoads: 1, HotLoads: 2, ComputePerIter: 28, ShmemPerIter: 4,
		Pattern: isa.PatCoalesced, FootprintKB: 12 << 10, StorePeriod: 0, GridCTAs: 768},
	{Abbrev: "SR2", Name: "Sradv2", Suite: "Rodinia", Class: TypeR,
		WarpsPerCTA: 8, Regs: 34, Persistent: 10, SharedMem: 0,
		LoopTrips: 12, StreamLoads: 2, HotLoads: 1, ComputePerIter: 14, Pattern: isa.PatCoalesced,
		FootprintKB: 32 << 10, ColdRegs: 12, GridCTAs: 512},
	{Abbrev: "TA", Name: "Two Point Angular", Suite: "Parboil", Class: TypeR,
		WarpsPerCTA: 4, Regs: 24, Persistent: 8, SharedMem: 24 << 10,
		LoopTrips: 16, StreamLoads: 1, HotLoads: 1, ComputePerIter: 12, ShmemPerIter: 4, SFUPerIter: 1,
		Pattern: isa.PatCoalesced, FootprintKB: 16 << 10, ColdRegs: 8, GridCTAs: 1024},
	{Abbrev: "TR", Name: "Transpose", Suite: "CUDA SDK", Class: TypeR,
		WarpsPerCTA: 4, Regs: 38, Persistent: 12, SharedMem: 6 << 10,
		LoopTrips: 12, StreamLoads: 1, HotLoads: 1, ComputePerIter: 14, ShmemPerIter: 4,
		Pattern: isa.PatStrided, Stride: 2, FootprintKB: 32 << 10, StorePeriod: 1, GridCTAs: 768},
}

// Profiles returns the Table II benchmark profiles in paper order
// (Type-S block first). The slice is a copy; callers may mutate it.
func Profiles() []Profile {
	out := make([]Profile, len(table))
	copy(out, table)
	return out
}

// ProfileByName returns the profile with the given abbreviation.
func ProfileByName(abbrev string) (Profile, error) {
	for _, p := range table {
		if p.Abbrev == abbrev {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("kernels: unknown benchmark %q", abbrev)
}

// Names returns all benchmark abbreviations, Type-S first then Type-R,
// alphabetical within each class.
func Names() []string {
	var s, r []string
	for _, p := range table {
		if p.Class == TypeS {
			s = append(s, p.Abbrev)
		} else {
			r = append(r, p.Abbrev)
		}
	}
	sort.Strings(s)
	sort.Strings(r)
	return append(s, r...)
}

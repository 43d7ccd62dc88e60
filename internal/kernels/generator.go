package kernels

import (
	"fmt"

	"finereg/internal/isa"
)

// Register-layout convention used by every generated benchmark:
//
//	R0        loop induction variable
//	R1        loop bound
//	R2        predicate scratch
//	R3..      Persistent accumulators (live across the main loop)
//	next..    per-iteration temporaries (dead at the loop head)
//	last C    cold registers, touched only in a statically present but
//	          dynamically skipped guard path — they model the compiler's
//	          worst-case allocation that FineReg's live-register analysis
//	          reclaims.
const (
	regInd   = isa.Reg(0)
	regBound = isa.Reg(1)
	regPred  = isa.Reg(2)
	firstVar = 3
)

// Build returns a launchable Kernel of gridCTAs CTAs (gridCTAs <= 0 uses
// the profile default) for profile p: a fresh header over the program and
// liveness analysis the table holds for p (Generate).
func Build(p Profile, gridCTAs int) (*Kernel, error) {
	c, err := Generate(p)
	if err != nil {
		return nil, err
	}
	if gridCTAs <= 0 {
		gridCTAs = p.GridCTAs
	}
	return c.Kernel(p, gridCTAs), nil
}

// MustBuild is Build that panics on error; the built-in table is static.
func MustBuild(p Profile, gridCTAs int) *Kernel {
	k, err := Build(p, gridCTAs)
	if err != nil {
		panic(err)
	}
	return k
}

// BuildAll generates every Table II kernel with grids scaled by scale
// (scale 1.0 = the reference 16-SM grid sizes; experiments on fewer SMs
// pass a smaller scale so run lengths stay proportionate).
func BuildAll(scale float64) []*Kernel {
	out := make([]*Kernel, 0, len(table))
	for _, p := range table {
		out = append(out, MustBuild(p, p.ScaledGrid(scale, 16)))
	}
	return out
}

func checkProfile(p *Profile) error {
	if p.WarpsPerCTA < 1 || p.WarpsPerCTA > 32 {
		return fmt.Errorf("kernels: %s: WarpsPerCTA %d out of range", p.Abbrev, p.WarpsPerCTA)
	}
	if p.Regs < firstVar+1 || p.Regs > isa.MaxRegs {
		return fmt.Errorf("kernels: %s: Regs %d out of range", p.Abbrev, p.Regs)
	}
	temps := p.Regs - firstVar - p.Persistent - p.ColdRegs
	if temps < 1 {
		return fmt.Errorf("kernels: %s: register budget exhausted (regs=%d persistent=%d cold=%d)",
			p.Abbrev, p.Regs, p.Persistent, p.ColdRegs)
	}
	if p.LoopTrips < 1 {
		return fmt.Errorf("kernels: %s: LoopTrips must be >= 1", p.Abbrev)
	}
	if p.Persistent < 1 {
		return fmt.Errorf("kernels: %s: Persistent must be >= 1", p.Abbrev)
	}
	if p.StreamLoads+p.HotLoads < 1 {
		return fmt.Errorf("kernels: %s: at least one global load per iteration required", p.Abbrev)
	}
	for _, v := range [...]int{p.SharedMem, p.StreamLoads, p.HotLoads, p.HotKB, p.ComputePerIter, p.SFUPerIter,
		p.ShmemPerIter, p.Stride, p.FootprintKB, p.StorePeriod, p.ColdRegs, p.GridCTAs} {
		if v < 0 {
			return fmt.Errorf("kernels: %s: negative profile field", p.Abbrev)
		}
	}
	// The per-iteration mix sizes the program, which admission builds:
	// Table II peaks at 28, and the bound keeps any program to a few
	// thousand instructions.
	if max(p.StreamLoads, p.HotLoads, p.ComputePerIter, p.SFUPerIter, p.ShmemPerIter) > maxPerIter {
		return fmt.Errorf("kernels: %s: more than %d instructions of one kind per iteration", p.Abbrev, maxPerIter)
	}
	return nil
}

// maxPerIter bounds each per-iteration instruction count of a profile.
const maxPerIter = 1024

// generate emits the benchmark program. The shape is:
//
//	prologue   — init induction/bound, touch & seed persistent registers
//	guard      — predicate-false forward branch over a cold block
//	main loop  — loads, shared-memory ops, FMA chains into persistents,
//	             SFU ops, optional store, induction update, back edge
//	epilogue   — store persistents, EXIT
//	cold block — touches the ColdRegs (statically allocated, never run)
func generate(p *Profile) *isa.Program {
	b := isa.NewBuilder(p.Abbrev)

	persist := make([]isa.Reg, p.Persistent)
	for i := range persist {
		persist[i] = isa.Reg(firstVar + i)
	}
	nTemps := p.Regs - firstVar - p.Persistent - p.ColdRegs
	temps := make([]isa.Reg, nTemps)
	for i := range temps {
		temps[i] = isa.Reg(firstVar + p.Persistent + i)
	}
	cold := make([]isa.Reg, p.ColdRegs)
	for i := range cold {
		cold[i] = isa.Reg(p.Regs - p.ColdRegs + i)
	}
	footBytes := int64(p.FootprintKB) << 10
	hotBytes := int64(p.HotKB) << 10
	if hotBytes == 0 {
		hotBytes = 64 << 10
	}
	streamMem := func(i int) isa.MemDesc {
		return isa.MemDesc{Pattern: p.Pattern, Stride: p.Stride, Region: uint8(i), Footprint: footBytes}
	}
	// Hot regions are always coalesced: they model reused tables/tiles
	// whose lines live in the L1/L2 after warm-up.
	hotMem := func(i int) isa.MemDesc {
		return isa.MemDesc{Pattern: isa.PatCoalesced, Region: uint8(8 + i), Footprint: hotBytes}
	}
	storeMem := isa.MemDesc{Pattern: p.Pattern, Stride: p.Stride, Region: 15, Footprint: footBytes}

	// Prologue.
	b.MovI(regInd, 0)
	b.MovI(regBound, uint32(p.LoopTrips))
	for i, r := range persist {
		b.MovI(r, uint32(i+1))
	}
	// Guard over the cold block: R0 < R0 is always false, so the branch
	// never fires at runtime, but the cold block stays in the static
	// program (and in the register allocation).
	if p.ColdRegs > 0 {
		b.ISetp(regPred, regInd, regInd)
		b.BraCond(regPred, "cold", 0, false)
	}

	// Main loop.
	b.Label("body")
	// Temporaries are handed out from the TOP of the temp range: loads
	// land in the highest architectural registers, the way register
	// allocators place short-lived values after the long-lived ones. This
	// matters for RegMutex, whose BRS/SRP split keys on register indices.
	ti := 0
	nextTemp := func() isa.Reg {
		r := temps[len(temps)-1-ti%len(temps)]
		ti++
		return r
	}
	// Loads first; their values are consumed only at the tail of the
	// compute chain, so a warp issues a long independent burst before the
	// scoreboard blocks it on the memory latency — matching the hundreds
	// of cycles GPUs run between full CTA stalls (Table III).
	loaded := make([]isa.Reg, 0, p.StreamLoads+p.HotLoads)
	for i := 0; i < p.StreamLoads; i++ {
		t := nextTemp()
		b.Ldg(t, regInd, streamMem(i))
		loaded = append(loaded, t)
	}
	for i := 0; i < p.HotLoads; i++ {
		t := nextTemp()
		b.Ldg(t, regInd, hotMem(i))
		loaded = append(loaded, t)
	}
	for i := 0; i < p.ShmemPerIter; i++ {
		t := nextTemp()
		if i%2 == 0 {
			b.Lds(t, regInd)
			loaded = append(loaded, t)
		} else {
			b.Sts(persist[i%len(persist)], regInd)
		}
	}
	// Shared-memory producer/consumer kernels synchronize the CTA each
	// iteration — one reason the paper observes whole CTAs stalling
	// together (Section IV-C).
	if p.ShmemPerIter > 0 && p.WarpsPerCTA > 1 {
		b.Bar()
	}
	// Independent head: persistent-register arithmetic with dependency
	// distance len(persist), then a tail that folds the loaded values in.
	head := p.ComputePerIter - len(loaded)
	if head < 0 {
		head = 0
	}
	for i := 0; i < head; i++ {
		dst := persist[i%len(persist)]
		a := persist[(i+1)%len(persist)]
		c := persist[(i+2)%len(persist)]
		switch i % 3 {
		case 0:
			b.FFma(dst, a, c, dst)
		case 1:
			b.FMul(dst, a, c)
		default:
			b.FAdd(dst, a, c)
		}
	}
	for i, t := range loaded {
		if i >= p.ComputePerIter && i > 0 {
			break
		}
		dst := persist[i%len(persist)]
		b.FFma(dst, t, dst, dst)
	}
	for i := 0; i < p.SFUPerIter; i++ {
		b.Mufu(persist[i%len(persist)], persist[(i+1)%len(persist)])
	}
	if p.StorePeriod > 0 {
		b.Stg(persist[0], regInd, storeMem)
	}
	b.IAddI(regInd, regInd, 1)
	b.ISetp(regPred, regInd, regBound)
	b.Loop(regPred, "body", p.LoopTrips)

	// Epilogue: store the persistent results.
	for i, r := range persist {
		if i%2 == 0 {
			b.Stg(r, regInd, storeMem)
		}
	}
	b.Exit()

	// Cold block (never executed at runtime).
	if p.ColdRegs > 0 {
		b.Label("cold")
		for i, r := range cold {
			b.MovI(r, uint32(i))
		}
		for i := 1; i < len(cold); i++ {
			b.FAdd(cold[i], cold[i], cold[i-1])
		}
		b.Stg(cold[len(cold)-1], regInd, storeMem)
		b.Exit()
	}

	return b.MustBuild(p.Regs)
}

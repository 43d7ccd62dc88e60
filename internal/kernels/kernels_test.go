package kernels

import (
	"testing"
	"testing/quick"

	"finereg/internal/isa"
	"finereg/internal/liveness"
)

// tableILimits is the paper's Table I machine.
var tableILimits = Limits{
	MaxCTAs:        32,
	MaxWarps:       64,
	MaxThreads:     2048,
	RegFileBytes:   256 << 10,
	SharedMemBytes: 96 << 10,
}

func TestTableIIHasEighteenBenchmarks(t *testing.T) {
	if got := len(Profiles()); got != 18 {
		t.Fatalf("Table II has %d benchmarks, want 18", got)
	}
}

func TestClassificationMatchesTableII(t *testing.T) {
	var nS, nR int
	for _, p := range Profiles() {
		got := p.Classify(tableILimits)
		if got != p.Class {
			ctas, lim := p.Occupancy(tableILimits)
			t.Errorf("%s: classified %v (limiter %s at %d CTAs), table says %v",
				p.Abbrev, got, lim, ctas, p.Class)
		}
		if p.Class == TypeS {
			nS++
		} else {
			nR++
		}
	}
	if nS != 9 || nR != 9 {
		t.Errorf("class split = %d Type-S / %d Type-R, want 9/9", nS, nR)
	}
}

func TestAllProgramsValidate(t *testing.T) {
	for _, k := range BuildAll(1.0) {
		if err := isa.Validate(k.Prog); err != nil {
			t.Errorf("%s: %v", k.Name(), err)
		}
		if k.Prog.RegsPerThread != k.Profile.Regs {
			t.Errorf("%s: program allocates %d regs, profile says %d",
				k.Name(), k.Prog.RegsPerThread, k.Profile.Regs)
		}
	}
}

func TestStaticInstructionBudget(t *testing.T) {
	// Paper Section V-F: "each application used in our experiments had
	// only up to 600 static instructions", so the 12-byte bit vectors fit
	// in < 4.8 KB more generously, 7.2 KB) of off-chip memory.
	for _, k := range BuildAll(1.0) {
		if n := k.Prog.Len(); n > 600 {
			t.Errorf("%s: %d static instructions, want <= 600", k.Name(), n)
		}
		if b := k.Live.BitVectorBytes(); b > 7200 {
			t.Errorf("%s: bit-vector table %d bytes, want <= 7200", k.Name(), b)
		}
	}
}

// TestLiveFractionAtLoads checks the Figure 5 premise: at global-load PCs
// (where warps stall) the live set is a strict subset of the allocation,
// and across the suite the average live fraction is well below 100%.
func TestLiveFractionAtLoads(t *testing.T) {
	var sumFrac float64
	var n int
	for _, k := range BuildAll(1.0) {
		maxFrac := 0.0
		for pc := 0; pc < k.Prog.Len(); pc++ {
			if k.Prog.At(pc).Op != isa.OpLDG {
				continue
			}
			frac := float64(k.Live.LiveCount(pc)) / float64(k.Profile.Regs)
			if frac > maxFrac {
				maxFrac = frac
			}
		}
		if maxFrac >= 1.0 {
			t.Errorf("%s: live fraction at a load PC = %.2f, want < 1.0", k.Name(), maxFrac)
		}
		sumFrac += maxFrac
		n++
	}
	if mean := sumFrac / float64(n); mean > 0.8 {
		t.Errorf("suite mean worst-case live fraction at loads = %.2f, want <= 0.8", mean)
	}
}

// TestColdRegsDeadInHotLoop checks that cold-path registers never appear
// in the live set of any hot-loop PC — the over-allocation FineReg frees.
func TestColdRegsDeadInHotLoop(t *testing.T) {
	for _, k := range BuildAll(1.0) {
		p := k.Profile
		if p.ColdRegs == 0 {
			continue
		}
		firstCold := isa.Reg(p.Regs - p.ColdRegs)
		// Hot PCs are everything before the first EXIT.
		for pc := 0; pc < k.Prog.Len() && k.Prog.At(pc).Op != isa.OpEXIT; pc++ {
			live := k.Live.At(pc)
			for r := firstCold; int(r) < p.Regs; r++ {
				if live.Has(r) {
					t.Errorf("%s: cold register %v live at hot pc %d", k.Name(), r, pc)
				}
			}
		}
	}
}

func TestCTAOverheadRange(t *testing.T) {
	// Figure 3: running an extra CTA costs 6 KB to 37.3 KB, and registers
	// dominate (88.7% on average).
	var regSum, totSum float64
	for _, p := range Profiles() {
		ov := p.CTAOverheadBytes()
		if ov < 6<<10 || ov > 40<<10 {
			t.Errorf("%s: CTA overhead %d bytes, want within [6KB, 40KB]", p.Abbrev, ov)
		}
		regSum += float64(p.RegBytesPerCTA())
		totSum += float64(ov)
	}
	if frac := regSum / totSum; frac < 0.75 || frac > 0.98 {
		t.Errorf("register share of CTA overhead = %.3f, want ~0.887 (within [0.75,0.98])", frac)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Convolution Separable" {
		t.Errorf("CS resolves to %q", p.Name)
	}
	if _, err := ProfileByName("XX"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestNamesOrdering(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("Names() returned %d entries, want 18", len(names))
	}
	// First nine are Type-S, last nine Type-R.
	for i, n := range names {
		p, err := ProfileByName(n)
		if err != nil {
			t.Fatal(err)
		}
		wantClass := TypeS
		if i >= 9 {
			wantClass = TypeR
		}
		if p.Class != wantClass {
			t.Errorf("Names()[%d] = %s is %v, want %v", i, n, p.Class, wantClass)
		}
	}
}

func TestBuildRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Abbrev: "W0", WarpsPerCTA: 0, Regs: 16, Persistent: 2, LoopTrips: 4, StreamLoads: 1},
		{Abbrev: "R0", WarpsPerCTA: 2, Regs: 2, Persistent: 1, LoopTrips: 4, StreamLoads: 1},
		{Abbrev: "OV", WarpsPerCTA: 2, Regs: 10, Persistent: 5, ColdRegs: 5, LoopTrips: 4, StreamLoads: 1},
		{Abbrev: "T0", WarpsPerCTA: 2, Regs: 16, Persistent: 2, LoopTrips: 0, StreamLoads: 1},
		{Abbrev: "L0", WarpsPerCTA: 2, Regs: 16, Persistent: 2, LoopTrips: 4, StreamLoads: 0},
	}
	for _, p := range bad {
		if _, err := Build(p, 1); err == nil {
			t.Errorf("%s: Build accepted invalid profile", p.Abbrev)
		}
	}
}

func TestBuildGridDefaulting(t *testing.T) {
	p, _ := ProfileByName("SG")
	k := MustBuild(p, 0)
	if k.GridCTAs != p.GridCTAs {
		t.Errorf("default grid = %d, want %d", k.GridCTAs, p.GridCTAs)
	}
	k = MustBuild(p, 7)
	if k.GridCTAs != 7 {
		t.Errorf("explicit grid = %d, want 7", k.GridCTAs)
	}
}

func TestBuildAllScaling(t *testing.T) {
	half := BuildAll(0.5)
	full := BuildAll(1.0)
	for i := range half {
		if half[i].GridCTAs*2 < full[i].GridCTAs-1 || half[i].GridCTAs*2 > full[i].GridCTAs+1 {
			t.Errorf("%s: scaled grid %d not ~half of %d", half[i].Name(), half[i].GridCTAs, full[i].GridCTAs)
		}
	}
}

// TestScaledGridNeverBelowOne: the shared grid rule rounds to nearest,
// defaults its scale to sms/16, and never returns a grid Build would read as
// "use the reference grid" — a -grid-scale that rounds to zero ran the full
// 16-SM workload instead of one CTA.
func TestScaledGridNeverBelowOne(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 18 {
		t.Fatalf("%d profiles, want Table II's 18", len(profiles))
	}
	for _, p := range profiles {
		for _, scale := range []float64{1e-6, 0.01, 0.25, 1, 4} {
			want := int(float64(p.GridCTAs)*scale + 0.5)
			if want < 1 {
				want = 1
			}
			if got := p.ScaledGrid(scale, 2); got != want {
				t.Errorf("%s: ScaledGrid(%g) = %d, want %d", p.Abbrev, scale, got, want)
			}
		}
		if got := p.ScaledGrid(0, 16); got != p.GridCTAs {
			t.Errorf("%s: default scale on 16 SMs = %d, want the reference grid %d", p.Abbrev, got, p.GridCTAs)
		}
		if got, want := p.ScaledGrid(0, 4), p.ScaledGrid(0.25, 16); got != want {
			t.Errorf("%s: default scale on 4 SMs = %d, want %d (sms/16)", p.Abbrev, got, want)
		}
		if k := MustBuild(p, p.ScaledGrid(1e-6, 2)); k.GridCTAs != 1 {
			t.Errorf("%s: a vanishing scale built %d CTAs, want 1", p.Abbrev, k.GridCTAs)
		}
	}
}

// Property: occupancy is monotone in every limit — growing a resource never
// reduces CTA occupancy.
func TestOccupancyMonotoneQuick(t *testing.T) {
	prof, _ := ProfileByName("SG")
	f := func(dCTA, dWarp, dThread, dReg, dShmem uint16) bool {
		base := tableILimits
		grown := Limits{
			MaxCTAs:        base.MaxCTAs + int(dCTA%64),
			MaxWarps:       base.MaxWarps + int(dWarp%128),
			MaxThreads:     base.MaxThreads + int(dThread),
			RegFileBytes:   base.RegFileBytes + int(dReg)*64,
			SharedMemBytes: base.SharedMemBytes + int(dShmem)*64,
		}
		n0, _ := prof.Occupancy(base)
		n1, _ := prof.Occupancy(grown)
		return n1 >= n0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every generated program analyses cleanly and its live sets stay
// within the allocation, for arbitrary valid profile perturbations.
func TestGeneratedProgramsAnalyzeQuick(t *testing.T) {
	f := func(seed uint32) bool {
		base := table[int(seed)%len(table)]
		base.LoopTrips = 1 + int(seed%13)
		base.ComputePerIter = int(seed % 23)
		k, err := Build(base, 4)
		if err != nil {
			return false
		}
		info, err := liveness.Analyze(k.Prog)
		if err != nil {
			return false
		}
		return info.MaxLive() <= k.Prog.RegsPerThread
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAsmRoundTripAllBenchmarks: every generated Table II program must
// survive an EmitAsm -> Assemble round trip exactly — the assembly format
// is the archival representation of the kernels.
func TestAsmRoundTripAllBenchmarks(t *testing.T) {
	for _, k := range BuildAll(0.1) {
		asm := isa.EmitAsm(k.Prog)
		p2, err := isa.Assemble(asm)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if p2.RegsPerThread != k.Prog.RegsPerThread {
			t.Errorf("%s: regs %d != %d after round trip", k.Name(), p2.RegsPerThread, k.Prog.RegsPerThread)
		}
		if len(p2.Instrs) != len(k.Prog.Instrs) {
			t.Fatalf("%s: length %d != %d after round trip", k.Name(), len(p2.Instrs), len(k.Prog.Instrs))
		}
		for pc := range k.Prog.Instrs {
			if k.Prog.Instrs[pc] != p2.Instrs[pc] {
				t.Errorf("%s pc %d: %+v != %+v", k.Name(), pc, k.Prog.Instrs[pc], p2.Instrs[pc])
			}
		}
	}
}

package workload

import (
	"errors"
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
)

var tableILimits = kernels.Limits{
	MaxCTAs: 32, MaxWarps: 64, MaxThreads: 2048,
	RegFileBytes: 256 << 10, SharedMemBytes: 96 << 10,
}

const demoSrc = `.kernel demo
.regs 12
.warps 2
.grid 8
  MOV R0, #0
  MOV R1, #4
top:
  LDG R2, [R0] pattern=coalesced region=1 footprint=65536
  FFMA R3, R2, R2, R3
  IADD R0, R0, #1
  ISETP R4, R0, R1
  @R4 BRA top trip=4
  STG [R0], R3 region=15
  EXIT
`

func TestLoadSourceProgram(t *testing.T) {
	p := Program{Source: demoSrc}
	k, err := p.Load(tableILimits)
	if err != nil {
		t.Fatal(err)
	}
	if k.Profile.Abbrev != "demo" || k.Profile.Suite != "user" {
		t.Errorf("profile identity = %q/%q", k.Profile.Abbrev, k.Profile.Suite)
	}
	if k.Profile.WarpsPerCTA != 2 {
		t.Errorf("WarpsPerCTA = %d, want 2 (from .warps)", k.Profile.WarpsPerCTA)
	}
	if k.Profile.Regs != 12 {
		t.Errorf("Regs = %d, want 12 (from .regs)", k.Profile.Regs)
	}
	if k.GridCTAs != 8 || k.Profile.GridCTAs != 8 {
		t.Errorf("grid = %d/%d, want 8 (from .grid)", k.GridCTAs, k.Profile.GridCTAs)
	}
	if k.Live == nil || k.Prog == nil {
		t.Fatal("kernel missing program or liveness info")
	}
	if got := k.Prog.Len(); got != 9 {
		t.Errorf("program length = %d, want 9", got)
	}
}

func TestLoadOverridesBeatDirectives(t *testing.T) {
	p := Program{Source: demoSrc, WarpsPerCTA: 6, Grid: 32, SharedMem: 1024}
	k, err := p.Load(tableILimits)
	if err != nil {
		t.Fatal(err)
	}
	if k.Profile.WarpsPerCTA != 6 || k.GridCTAs != 32 || k.Profile.SharedMem != 1024 {
		t.Errorf("overrides not applied: %+v grid=%d", k.Profile, k.GridCTAs)
	}
}

func TestLoadDefaultsWithoutDirectives(t *testing.T) {
	p := Program{Source: "MOV R0, #1\nEXIT"}
	k, err := p.Load(kernels.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if k.Profile.WarpsPerCTA != DefaultWarpsPerCTA {
		t.Errorf("WarpsPerCTA = %d, want default %d", k.Profile.WarpsPerCTA, DefaultWarpsPerCTA)
	}
	if k.GridCTAs != DefaultGridCTAs {
		t.Errorf("grid = %d, want default %d", k.GridCTAs, DefaultGridCTAs)
	}
}

func TestLoadBenchProgram(t *testing.T) {
	p := Program{Bench: "SG", Grid: 10}
	k, err := p.Load(tableILimits)
	if err != nil {
		t.Fatal(err)
	}
	if k.Profile.Abbrev != "SG" || k.GridCTAs != 10 {
		t.Errorf("bench kernel = %q grid %d", k.Profile.Abbrev, k.GridCTAs)
	}
	// Bench + geometry overrides is a contradiction, not a merge.
	if _, err := (&Program{Bench: "SG", WarpsPerCTA: 8}).Load(tableILimits); err == nil {
		t.Error("bench with warps override was accepted")
	}
}

func TestLoadDeterministic(t *testing.T) {
	p := Program{Source: demoSrc}
	k1, err := p.Load(tableILimits)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.Load(tableILimits)
	if err != nil {
		t.Fatal(err)
	}
	if isa.EmitAsm(k1.Prog) != isa.EmitAsm(k2.Prog) {
		t.Error("repeated loads produced different programs")
	}
	if k1.Profile != k2.Profile {
		t.Errorf("repeated loads produced different profiles: %+v vs %+v", k1.Profile, k2.Profile)
	}
}

func TestLoadErrorsAreStructured(t *testing.T) {
	cases := []struct {
		name     string
		spec     Program
		field    string
		wantLine int
	}{
		{"empty", Program{}, "source", 0},
		{"both", Program{Source: "EXIT", Bench: "SG"}, "source", 0},
		{"unknown-bench", Program{Bench: "ZZ"}, "bench", 0},
		{"bad-asm", Program{Source: "MOV R0, #0\nMOV R99, #1\nEXIT"}, "source", 2},
		{"no-exit", Program{Source: "MOV R0, #1"}, "source", 0},
		{"bad-warps", Program{Source: "EXIT", WarpsPerCTA: -1}, "warps_per_cta", 0},
		{"bad-grid", Program{Source: "EXIT", Grid: 1 << 23}, "grid", 0},
		{"bad-shmem", Program{Source: "EXIT", SharedMem: -5}, "shared_mem", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Load(tableILimits)
			var we *Error
			if !errors.As(err, &we) {
				t.Fatalf("want *Error, got %T %v", err, err)
			}
			if we.Field != c.field {
				t.Errorf("Field = %q, want %q (%v)", we.Field, c.field, err)
			}
			if we.Line != c.wantLine {
				t.Errorf("Line = %d, want %d (%v)", we.Line, c.wantLine, err)
			}
		})
	}
}

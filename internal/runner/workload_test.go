package runner

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/workload"
)

const testProgram = `.kernel demo
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

func programJob(progs ...workload.Program) *Job {
	return &Job{
		Cfg:      gpu.Default().Scale(2),
		Policy:   Baseline(),
		Programs: progs,
	}
}

func TestProgramJobKeyChangesWithProgramText(t *testing.T) {
	j := programJob(workload.Program{Source: testProgram})
	k1 := j.Key(SimFingerprint)
	if k1 != programJob(workload.Program{Source: testProgram}).Key(SimFingerprint) {
		t.Fatal("program job key not stable")
	}
	// The key changes iff the program text (or launch geometry) changes.
	perturbed := map[string]*Job{
		"source": programJob(workload.Program{Source: testProgram + "; trailing comment\n"}),
		"grid":   programJob(workload.Program{Source: testProgram, Grid: 16}),
		"warps":  programJob(workload.Program{Source: testProgram, WarpsPerCTA: 4}),
	}
	for name, pj := range perturbed {
		if pj.Key(SimFingerprint) == k1 {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}

	// Legacy profile jobs must keep their pre-Programs keys: a nil and an
	// absent Programs slice encode identically (omitempty).
	legacy := tinyJob(t, "CS", Baseline())
	withNil := tinyJob(t, "CS", Baseline())
	withNil.Programs = []workload.Program{}
	if legacy.Key(SimFingerprint) != withNil.Key(SimFingerprint) {
		t.Error("empty Programs slice perturbs legacy job keys")
	}
}

// TestProgramJobMatchesInProcessRun pins the ingestion contract: a
// program executed through the engine (the serve/fleet path) yields
// metrics byte-identical to loading and running it in-process.
func TestProgramJobMatchesInProcessRun(t *testing.T) {
	j := programJob(workload.Program{Source: testProgram})
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	out := (&Engine{Jobs: 1}).Run([]*Job{j})
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}

	k, err := (&workload.Program{Source: testProgram}).Load(j.Cfg.SM.Limits())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := j.Policy.Factory()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gpu.New(j.Cfg, pf).Run(k)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(out.Results[0].Metrics)
	b, _ := json.Marshal(direct)
	if string(a) != string(b) {
		t.Errorf("engine metrics differ from in-process run:\nengine: %s\ndirect: %s", a, b)
	}
}

func TestProgramJobValidation(t *testing.T) {
	bad := programJob(workload.Program{Source: "MOV R99, #1\nEXIT"})
	err := bad.Validate()
	var we *workload.Error
	if !errors.As(err, &we) {
		t.Fatalf("malformed source: want *workload.Error in chain, got %v", err)
	}
	if we.Line != 1 {
		t.Errorf("Line = %d, want 1", we.Line)
	}

	both := programJob(workload.Program{Source: testProgram})
	both.Profile = tinyJob(t, "CS", Baseline()).Profile
	if both.Validate() == nil {
		t.Error("programs + profile accepted")
	}

	two := programJob(workload.Program{Source: testProgram}, workload.Program{Bench: "CS"})
	if err := two.Validate(); !errors.As(err, &we) || we.Field != "programs" {
		t.Errorf("two programs: %v, want a *workload.Error on field programs", err)
	}
	if _, err := Simulate(context.Background(), "", two); !errors.As(err, &we) || we.Field != "programs" {
		t.Errorf("two programs reached Simulate: %v, want a *workload.Error on field programs", err)
	}
}

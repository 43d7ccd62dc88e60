package runner

import (
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
		"second": programJob(workload.Program{Source: testProgram}, workload.Program{Bench: "CS"}),
	}
	for name, pj := range perturbed {
		if pj.Key(SimFingerprint) == k1 {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}
	part := programJob(workload.Program{Source: testProgram}, workload.Program{Bench: "CS"})
	part.Cfg.Partitions = []int{1, 1}
	if part.Key(SimFingerprint) == perturbed["second"].Key(SimFingerprint) {
		t.Error("partitioning did not change the key")
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

func TestStreamJobCarriesSegments(t *testing.T) {
	j := programJob(
		workload.Program{Source: testProgram},
		workload.Program{Bench: "CS", Grid: 8},
	)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	out := (&Engine{Jobs: 1}).Run([]*Job{j})
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
	if sum := res.Segments[0].Instructions + res.Segments[1].Instructions; res.Metrics.Instructions != sum {
		t.Errorf("rollup instructions %d != segment sum %d", res.Metrics.Instructions, sum)
	}
	clone := res.Clone()
	if len(clone.Segments) != 2 || clone.Segments[0] == res.Segments[0] {
		t.Error("Clone must deep-copy segments")
	}
}

func TestConcurrentJobRunsPartitioned(t *testing.T) {
	j := programJob(
		workload.Program{Bench: "LB", Grid: 8},
		workload.Program{Bench: "CS", Grid: 8},
	)
	j.Cfg = gpu.Default().Scale(4)
	j.Cfg.Partitions = []int{2, 2}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	out := (&Engine{Jobs: 1}).Run([]*Job{j})
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
	if res.Segments[0].Instructions == 0 || res.Segments[1].Instructions == 0 {
		t.Error("partition segments missing instruction counts")
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

	partProfile := tinyJob(t, "CS", Baseline())
	partProfile.Cfg.Partitions = []int{1, 1}
	if partProfile.Validate() == nil {
		t.Error("partitioned profile job accepted")
	}

	mismatch := programJob(workload.Program{Source: testProgram})
	mismatch.Cfg.Partitions = []int{1, 1}
	if mismatch.Validate() == nil {
		t.Error("1 program for 2 partitions accepted")
	}

	badParts := programJob(workload.Program{Source: testProgram}, workload.Program{Bench: "CS"})
	badParts.Cfg.Partitions = []int{3, 3} // sums past the 2-SM machine
	if badParts.Validate() == nil {
		t.Error("oversubscribed partitions accepted")
	}

	multiStalls := programJob(workload.Program{Source: testProgram}, workload.Program{Bench: "CS"})
	multiStalls.Stalls = true
	if multiStalls.Validate() == nil {
		t.Error("multi-kernel stall attribution accepted")
	}
}

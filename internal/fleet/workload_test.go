package fleet

import (
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/runner"
	"finereg/internal/workload"
)

const fleetProgram = `.kernel demo
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

// TestFleetRunsProgramJobs: user programs dispatched through a
// coordinator reach a worker intact (the program text rides in the
// request RequestFromJob emits) and come back byte-identical to a direct
// engine run, a source program and a bench reference alike.
func TestFleetRunsProgramJobs(t *testing.T) {
	jobs := []*runner.Job{
		{Cfg: gpu.Default().Scale(2), Policy: runner.Baseline(),
			Programs: []workload.Program{{Source: fleetProgram}}},
		{Cfg: gpu.Default().Scale(2), Policy: runner.FineRegDefault(),
			Programs: []workload.Program{{Bench: "CS", Grid: 4}}},
	}
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	w := newWorker(t, nil)
	_, client := newCoordinator(t, CoordinatorConfig{}, w)
	fleetRun, err := runAll(client, jobs...)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	assertSameResults(t, jobs, direct, fleetRun)
	if got := w.eng.Stats().Executed; got != int64(len(jobs)) {
		t.Errorf("worker executed %d simulations, want %d", got, len(jobs))
	}
}

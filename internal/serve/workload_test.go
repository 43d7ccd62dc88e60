package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/runner"
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

// TestProgramOverHTTPByteIdentical is the ingestion acceptance test: a
// user program submitted via POST /v1/jobs must produce metrics
// byte-identical to the same program run in-process, under the same
// content-addressed key.
func TestProgramOverHTTPByteIdentical(t *testing.T) {
	cfg := gpu.Default().Scale(2)
	jobs := []*runner.Job{
		{Cfg: cfg, Policy: runner.Baseline(), Programs: []workload.Program{{Source: testProgram}}},
		{Cfg: cfg, Policy: runner.Baseline(), Programs: []workload.Program{
			{Source: testProgram}, {Bench: "CS", Grid: 8},
		}},
	}
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	_, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	remote := runRemote(c, jobs...)
	if err := remote.Err(); err != nil {
		t.Fatalf("remote batch: %v", err)
	}
	for i := range jobs {
		want := mustJSON(t, direct.Results[i])
		got := mustJSON(t, remote.Results[i])
		if !bytes.Equal(want, got) {
			t.Errorf("job %d: remote result differs from in-process run\ndirect: %s\nremote: %s", i, want, got)
		}
	}
	if len(remote.Results[1].Segments) != 2 {
		t.Errorf("stream segments lost over the wire: %d", len(remote.Results[1].Segments))
	}

	// Key agreement for program jobs: the server derives the same
	// content-addressed key, so resubmission coalesces.
	sub, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(jobs[0])})
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs[0].Key(runner.SimFingerprint); sub.Jobs[0].Key != want {
		t.Errorf("server key %s != local key %s", sub.Jobs[0].Key, want)
	}
	if !sub.Jobs[0].Coalesced {
		t.Error("resubmitted program job was not coalesced")
	}
}

// TestProgramBadRequestStructured pins the 400 contract: a malformed
// program is rejected at admission with the assembler's position in the
// structured envelope, never a worker panic or a bare string.
func TestProgramBadRequestStructured(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxBatch: 4})

	post := func(path string, body any) *http.Response {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", bytes.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response) errorBody {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error envelope: %v", err)
		}
		return eb
	}

	bad := workload.Program{Source: "MOV R0, #0\nMOV R99, #1\nEXIT"}
	eb := decode(post("/v1/jobs", JobRequest{Policy: runner.Baseline(), Programs: []workload.Program{bad}}))
	if eb.Field != "source" {
		t.Errorf("Field = %q, want %q (%s)", eb.Field, "source", eb.Error)
	}
	if eb.Line != 2 || eb.Col < 1 {
		t.Errorf("position = line %d col %d, want line 2 with a column (%s)", eb.Line, eb.Col, eb.Error)
	}

	// Batch submissions carry the failing program's index within its job.
	eb = decode(post("/v1/batches", BatchRequest{Jobs: []JobRequest{{
		Policy:   runner.Baseline(),
		Programs: []workload.Program{{Bench: "CS", Grid: 8}, bad},
	}}}))
	if eb.Program != 1 {
		t.Errorf("Program = %d, want 1 (%s)", eb.Program, eb.Error)
	}
	if eb.Line != 2 {
		t.Errorf("Line = %d, want 2 (%s)", eb.Line, eb.Error)
	}

	// Mixed-form and partition-mismatch requests fail loudly too.
	eb = decode(post("/v1/jobs", JobRequest{Bench: "CS", Policy: runner.Baseline(),
		Programs: []workload.Program{{Bench: "LB"}}}))
	if eb.Error == "" {
		t.Error("mixed programs+bench accepted")
	}
	partCfg := gpu.Default().Scale(2)
	partCfg.Partitions = []int{1, 1}
	eb = decode(post("/v1/jobs", JobRequest{Cfg: &partCfg, Policy: runner.Baseline(),
		Programs: []workload.Program{{Bench: "CS", Grid: 4}}}))
	if eb.Error == "" {
		t.Error("partition/program count mismatch accepted")
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/isa"
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
		{Cfg: cfg, Policy: runner.Baseline(), Programs: []workload.Program{{Bench: "CS", Grid: 8}}},
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

	// A batch submission carries the failing job's assembler position too.
	eb = decode(post("/v1/batches", BatchRequest{Jobs: []JobRequest{
		{Policy: runner.Baseline(), Programs: []workload.Program{{Bench: "CS", Grid: 8}}},
		{Policy: runner.Baseline(), Programs: []workload.Program{bad}},
	}}))
	if eb.Field != "source" || eb.Line != 2 {
		t.Errorf("batch: field %q line %d, want source line 2 (%s)", eb.Field, eb.Line, eb.Error)
	}

	// Mixed-form requests fail loudly too.
	eb = decode(post("/v1/jobs", JobRequest{Bench: "CS", Policy: runner.Baseline(),
		Programs: []workload.Program{{Bench: "LB"}}}))
	if eb.Error == "" {
		t.Error("mixed programs+bench accepted")
	}
}

// TestOneProgramPerJob: a job runs one kernel. A second program is a 400
// on field "programs", and a machine config still carrying the partition
// list multi-kernel runs once read is an unknown field, so a 400 as well.
func TestOneProgramPerJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	two := mustJSON(t, JobRequest{Policy: runner.Baseline(),
		Programs: []workload.Program{{Source: testProgram}, {Bench: "CS", Grid: 4}}})
	cfg := gpu.Default().Scale(2)
	one := mustJSON(t, JobRequest{Cfg: &cfg, Policy: runner.Baseline(),
		Programs: []workload.Program{{Bench: "CS", Grid: 4}}})
	parts := bytes.Replace(one, []byte(`"cfg":{`), []byte(`"cfg":{"Partitions":[1,1],`), 1)
	if bytes.Equal(parts, one) {
		t.Fatal("request has no cfg object to extend")
	}
	for name, body := range map[string][]byte{"two programs": two, "partitions": parts} {
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil {
			t.Fatalf("%s: status %d (%v), want 400", name, resp.StatusCode, err)
		}
		if name == "two programs" && eb.Field != "programs" {
			t.Errorf("two programs: field %q, want %q (%s)", eb.Field, "programs", eb.Error)
		}
		if name == "partitions" && !strings.Contains(eb.Error, `unknown field "Partitions"`) {
			t.Errorf("partitions: error %q, want an unknown-field error", eb.Error)
		}
	}
}

// TestBodyBoundFitsOneProgram: the request-body bound is one maximal
// program (its source at the assembler's cap, JSON escaping included)
// plus a default batch of ordinary jobs. A job whose source sits at the
// cap is admitted; a body at the bound is read, and one byte over it is a
// 413.
func TestBodyBoundFitsOneProgram(t *testing.T) {
	if want := 2*isa.MaxSourceBytes + DefaultMaxBatch*4096; maxBodyBytes != want {
		t.Fatalf("maxBodyBytes = %d, want one program's %d", maxBodyBytes, want)
	}
	_, c := newTestServer(t, Config{Workers: 1})
	post := func(body []byte) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	pad := "; " + strings.Repeat("x", isa.MaxSourceBytes-len(testProgram)-3) + "\n"
	src := testProgram + pad
	if len(src) != isa.MaxSourceBytes {
		t.Fatalf("source is %d bytes, want %d", len(src), isa.MaxSourceBytes)
	}
	big := mustJSON(t, JobRequest{SMs: 2, Policy: runner.Baseline(), Programs: []workload.Program{{Source: src}}})
	if code, eb := post(big); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("a source at the %d-byte cap: status %d (%s), want admitted", isa.MaxSourceBytes, code, eb.Error)
	}

	sized := func(n int) []byte {
		const pre, post = `{"bench":"`, `"}`
		return []byte(pre + strings.Repeat("A", n-len(pre)-len(post)) + post)
	}
	if code, eb := post(sized(maxBodyBytes)); code != http.StatusBadRequest {
		t.Errorf("a body at the bound: status %d (%s), want 400 for its unknown bench", code, eb.Error)
	}
	if code, eb := post(sized(maxBodyBytes + 1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a body one byte over the bound: status %d (%s), want 413", code, eb.Error)
	}
}

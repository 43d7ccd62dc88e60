package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/workload"
)

// refKey is runner.Job.Key as it was first defined: the hex SHA-256 of
// json.Marshal of the key payload. Key now streams the encoder's output into
// the hash without the copy; every cached result is filed under this
// definition, so Key must equal it byte for byte.
func refKey(j *runner.Job, fingerprint string) string {
	payload := struct {
		Fingerprint string             `json:"fingerprint"`
		Cfg         gpu.Config         `json:"cfg"`
		Profile     kernels.Profile    `json:"profile"`
		Grid        int                `json:"grid"`
		Policy      runner.PolicySpec  `json:"policy"`
		TrackReg    bool               `json:"track_reg"`
		Stalls      bool               `json:"stalls"`
		Programs    []workload.Program `json:"programs,omitempty"`
	}{fingerprint, j.Cfg, j.Profile, j.Grid, j.Policy, j.TrackReg, j.Stalls, j.Programs}
	b, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestJobKeyMatchesReference holds Job.Key to refKey over every job of the
// golden matrix, over the same jobs after a trip through the wire form
// (RequestFromJob, JSON, Resolve), and over program jobs whose source holds
// what encoding/json escapes or replaces: <, >, &, U+2028 and invalid UTF-8.
func TestJobKeyMatchesReference(t *testing.T) {
	const fp = runner.SimFingerprint
	var matrix []*runner.Job
	for _, gc := range goldenKernels(t) {
		matrix = append(matrix, matrixJobs(gc.config(), gc.profile(t), gc.Grid)...)
	}
	for _, j := range matrix {
		if got, want := j.Key(fp), refKey(j, fp); got != want {
			t.Errorf("%s: key %s, reference %s", j.Label, got, want)
		}
	}

	saxpy, err := os.ReadFile("../../../examples/saxpy.sasm")
	if err != nil {
		t.Fatal(err)
	}
	var programs []*runner.Job
	for _, src := range []string{
		string(saxpy),
		string(saxpy) + "; <tag> & \"quoted\" \u2028 \u2029 \\ \t end\n",
		string(saxpy) + "; invalid UTF-8: \xff\xfe \xc3\x28\n",
	} {
		j := &runner.Job{Cfg: Config(2), Policy: runner.FineRegDefault(), Programs: []workload.Program{{Source: src}}}
		if got, want := j.Key(fp), refKey(j, fp); got != want {
			t.Errorf("program %q…: key %s, reference %s", src[len(src)-40:], got, want)
		}
		programs = append(programs, j)
	}

	// Invalid UTF-8 does not survive JSON (it arrives as U+FFFD, another
	// program text), so the wire round trip covers the valid sources.
	for _, j := range append(matrix, programs[:2]...) {
		body, err := json.Marshal(serve.RequestFromJob(j))
		if err != nil {
			t.Fatal(err)
		}
		var req serve.JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		resolved, err := req.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", j.Label, err)
		}
		if got, want := resolved.Key(fp), refKey(j, fp); got != want {
			t.Errorf("%s after RequestFromJob → Resolve: key %s, reference %s", j.Label, got, want)
		}
	}
}

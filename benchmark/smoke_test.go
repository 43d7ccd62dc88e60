package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// smoke runs one workload at 1 SM / 2 rounds and returns the decoded last
// line of its standard output.
func smoke(t *testing.T, workload string, traced bool, extra ...string) resultLine {
	t.Helper()
	dir := t.TempDir()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--smoke", "--outdir", dir}
	if traced {
		args = append(args, "--trace", "1")
	} else {
		args = append(args, "--trace", "0")
	}
	args = append(args, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d\n%s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", workload, keys)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	if traced {
		if _, err := os.Stat(filepath.Join(dir, workload+".trace.json")); err != nil {
			t.Error(err)
		}
	}
	return res
}

func checkNames(t *testing.T, workload string, res resultLine, defs []metricDef, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s emitted %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s did not emit %s", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case nonzero && *m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.Name, *m.Value)
		}
	}
}

// Every workload, untraced: no failed operation, every end-to-end metric
// present and non-zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "runs.jsonl")
			res := smoke(t, w.Name, false, "--out", out)
			checkNames(t, w.Name, res, endToEnd, true)
			recs, err := readRecords(out)
			if err != nil || len(recs) != 1 {
				t.Fatalf("run record: %v (%d records)", err, len(recs))
			}
			p := recs[0].Provenance
			if p.Workload != w.Name || p.Seed != 3 || p.Rounds != 2 || p.GoVersion == "" || p.NumCPU < 1 || recs[0].SimDigest == "" {
				t.Errorf("provenance incomplete: %+v", p)
			}
		})
	}
}

// Traced: every per-layer name is emitted by every workload, CPU shares and
// stall fractions sum to 1 (the run's own checks), and each workload's
// micro-drivers produced numbers.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced passes profile for seconds; the untraced smoke covers -short")
	}
	ran := map[string][]string{
		"sim-mem":    {"mem.cache_hit_ns", "mem.hier_scattered_ns", "sm.issue_frac", "mem.l1_accesses"},
		"sim-switch": {"core.pcrf_store_ns", "core.rmu_lookup_ns", "gpu.fig13_geomean", "gpu.finereg_ipc_gain", "sm.cta_switches"},
		"serve-mix":  {"isa.assemble_us", "runner.cache_get_disk_us", "serve.warm_p50_ms", "serve.diskwarm_p50_ms", "serve.coalesced_ratio", "runner.executed"},
	}
	for w, must := range ran {
		w, must := w, must
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, true)
			checkNames(t, w, res, perLayer, false)
			for _, name := range must {
				if m, ok := res.Metrics[name]; !ok || m.Value == nil || *m.Value <= 0 {
					t.Errorf("%s: %s not measured", w, name)
				}
			}
		})
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, kcps float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := &record{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"sim_kcycles_per_s": {Value: kcps * (1 + 0.002*float64(i)), Unit: "kcycle/s"},
			}}
			rec.Provenance.Workload = "sim-issue"
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("a.jsonl", 480), write("b.jsonl", 482), write("c.jsonl", 330)
	var out, errOut bytes.Buffer
	if code := compareFiles(base, same, &out, &errOut); code != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("31%% slower set: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.jsonl"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

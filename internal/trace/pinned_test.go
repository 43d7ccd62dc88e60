package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned.txt from this run")

const pinnedRecord = "testdata/pinned.txt"

// TestTraceOutputPinned pins the bytes the trace consumers produce — the
// Chrome JSON, the stall table and the full timeline table of
// `finereg-trace -bench LB -sms 2 -grid-scale 0.05` under each of the five
// policies — as sha256 digests, one line per policy. The simulator and both
// consumers are deterministic, so a different digest is a changed event
// stream or a changed rendering.
func TestTraceOutputPinned(t *testing.T) {
	prof, err := kernels.ProfileByName("LB")
	if err != nil {
		t.Fatal(err)
	}
	var record strings.Builder
	for _, name := range runner.PolicyKinds() {
		spec, err := runner.ParsePolicy(name, runner.DefaultSRPFrac, runner.DefaultDRAMCap)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernels.Build(prof, prof.ScaledGrid(0.05, 2))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cw := trace.NewChromeWriter(&buf)
		agg := trace.NewStallAggregator()
		g := gpu.New(gpu.Default().Scale(2), pf)
		g.SetTrace(trace.Multi(cw, agg))
		if _, err := g.Run(k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cw.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&record, "LB/%s chrome=%x stalls=%x timelines=%x\n", name,
			sha256.Sum256(buf.Bytes()),
			sha256.Sum256([]byte(agg.Breakdown().Table().String())),
			sha256.Sum256([]byte(agg.TimelineTable(0).String())))
	}
	if *update {
		if err := os.WriteFile(pinnedRecord, []byte(record.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := os.ReadFile(pinnedRecord)
	if err != nil {
		t.Fatal(err)
	}
	if got := record.String(); got != string(pinned) {
		t.Errorf("trace output differs from %s (-update rewrites it):\n--- got\n%s--- pinned\n%s", pinnedRecord, got, pinned)
	}
}

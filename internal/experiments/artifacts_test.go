package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"finereg/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.txt from this run (needs the full, non-short run)")

const quickRecord = "testdata/quick.txt"

// sweepBacked are the artifacts that take the 18-benchmark, five-policy
// grids (≈ 90 s together on 2 vCPU); the other eleven take < 2 s each.
var sweepBacked = []string{"f12", "f13", "f14", "f15", "f16", "stalls"}

func TestArtifactsRegistry(t *testing.T) {
	want := []string{"t2", "f2", "f3", "f4", "f5", "t3", "f12", "f13", "f14", "f15", "f16", "f17", "f18", "f19", "abl", "stalls"}
	var got []string
	for _, a := range Artifacts() {
		got = append(got, a.ID)
		if a.ID != strings.ToLower(a.ID) || a.Title == "" || a.Run == nil {
			t.Errorf("artifact %+v: id must be lower-case, title and Run set", a)
		}
	}
	if !slices.Equal(got, want) { // the documented order; also proves the ids unique
		t.Errorf("registry ids = %v, want %v", got, want)
	}
}

// TestDesignIndexListsEveryArtifact keeps DESIGN.md §5 an index of the
// registry.
func TestDesignIndexListsEveryArtifact(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Artifacts() {
		if !strings.Contains(string(design), "| "+strings.ToUpper(a.ID)+" |") {
			t.Errorf("DESIGN.md §5 has no row for artifact %q", a.ID)
		}
	}
}

// TestQuickRecordPinned regenerates the quick-scale record — every registry
// entry at Quick(), as `finereg-experiments -quick` prints it minus the
// timing lines — and compares it section by section with the committed one.
// The simulator is deterministic, so any difference is a changed table.
func TestQuickRecordPinned(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update rewrites the whole record and cannot run with -short")
	}
	pinned, err := os.ReadFile(quickRecord)
	if err != nil && !*update {
		t.Fatal(err)
	}
	sections := map[string]string{} // id -> its section, from the id on, without the blank lines that end it
	for _, sec := range strings.Split("\n"+string(pinned), "\n==== ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		sections[id] = strings.TrimRight(sec, "\n")
	}
	o := Quick()
	o.Runner = &runner.Engine{Cache: runner.NewCache("")}
	var record strings.Builder
	for _, a := range Artifacts() {
		if testing.Short() && slices.Contains(sweepBacked, a.ID) {
			continue
		}
		r, err := a.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		got := fmt.Sprintf("%s (%s) ====\n%s", a.ID, a.Title, r.Render())
		fmt.Fprintf(&record, "==== %s\n\n", got)
		if got = strings.TrimRight(got, "\n"); !*update && got != sections[a.ID] {
			t.Errorf("%s differs from %s (-update rewrites it):\n--- got\n%s\n--- pinned\n%s", a.ID, quickRecord, got, sections[a.ID])
		}
	}
	if *update {
		if err := os.WriteFile(quickRecord, []byte(record.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFigure14RestrictedSuite: with one of the memory-intensive trio in the
// suite, its mean divides by one and panel (b) has one row.
func TestFigure14RestrictedSuite(t *testing.T) {
	r, err := Figure14(tiny("CS", "KM"))
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanSRPMemIntensive != r.BestSRP["KM"] {
		t.Errorf("mem-intensive mean %v, want KM's own best fraction %v", r.MeanSRPMemIntensive, r.BestSRP["KM"])
	}
	out := r.Render()
	if strings.Contains(out, "SY2") || strings.Contains(out, "BF") {
		t.Errorf("panel (b) renders benchmarks that did not run:\n%s", out)
	}
	if len(r.StallFrac) != 1 {
		t.Errorf("StallFrac = %v, want KM alone", r.StallFrac)
	}
}

// TestFigure18DefaultSizes: the machine sizes follow Options.SMs.
func TestFigure18DefaultSizes(t *testing.T) {
	for _, c := range []struct {
		sms  int
		want []int
	}{{4, []int{4, 8, 16}}, {16, []int{16, 32, 64, 128}}, {3, []int{3, 6, 12}}} {
		if got := figure18Sizes(c.sms); !slices.Equal(got, c.want) {
			t.Errorf("%d SMs: sizes %v, want %v", c.sms, got, c.want)
		}
	}
}

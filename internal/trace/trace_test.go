package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/trace"
)

// testConfig is a 2-SM machine so runs stay test-sized while still
// exercising cross-SM dispatch.
func testConfig() gpu.Config { return gpu.Default().Scale(2) }

func testKernel(t *testing.T, name string, grid int) *kernels.Kernel {
	t.Helper()
	prof, err := kernels.ProfileByName(name)
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	// Shrink the streaming footprint to the 2-SM machine like the
	// experiment harness does, so runs are not artificially DRAM-bound.
	prof.FootprintKB = 1024
	k, err := kernels.Build(prof, grid)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return k
}

// policies returns all five evaluated configurations.
func policies() map[string]gpu.PolicyFactory {
	return map[string]gpu.PolicyFactory{
		"baseline": gpu.Baseline(),
		"vt":       gpu.VirtualThread(),
		"regdram":  gpu.RegDRAM(2),
		"regmutex": gpu.VTRegMutex(0.2),
		"finereg":  gpu.FineRegDefault(),
	}
}

// TestStallPartitionInvariant is the core property of the aggregator: over
// a full run, every warp-slot cycle lands in exactly one bucket, so the
// buckets sum to the independently-accumulated warp-slot total, and the
// issue bucket equals the instruction count the simulator reports.
func TestStallPartitionInvariant(t *testing.T) {
	for _, bench := range []string{"CS", "NW", "SG"} {
		for pname, pf := range policies() {
			t.Run(bench+"/"+pname, func(t *testing.T) {
				agg := trace.NewStallAggregator()
				g := gpu.New(testConfig(), pf)
				g.SetTrace(agg)
				m, err := g.Run(testKernel(t, bench, 96))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				b := agg.Breakdown()
				if err := b.Check(); err != nil {
					t.Errorf("partition invariant: %v\n%s", err, b)
				}
				if b.IssueCycles != m.Instructions {
					t.Errorf("issue cycles %d != instructions %d", b.IssueCycles, m.Instructions)
				}
				if b.WarpSlotCycles <= 0 {
					t.Errorf("no warp-slot cycles accumulated")
				}
				if agg.EndCycle() != m.Cycles {
					t.Errorf("end cycle %d != metrics cycles %d", agg.EndCycle(), m.Cycles)
				}
			})
		}
	}
}

// TestCTATimelines checks the per-CTA residency bookkeeping under the
// policy that actually context-switches.
func TestCTATimelines(t *testing.T) {
	agg := trace.NewStallAggregator()
	g := gpu.New(testConfig(), gpu.FineRegDefault())
	g.SetTrace(agg)
	m, err := g.Run(testKernel(t, "CS", 96))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tls := agg.Timelines()
	if len(tls) != int(m.CTAsLaunched) {
		t.Fatalf("timelines %d != launched CTAs %d", len(tls), m.CTAsLaunched)
	}
	var switches int64
	for _, tl := range tls {
		if tl.FinishAt < 0 {
			t.Errorf("SM%d/CTA%d never finished", tl.SM, tl.CTA)
			continue
		}
		if tl.ActiveCycles+tl.PendingCycles != tl.FinishAt-tl.LaunchAt {
			t.Errorf("SM%d/CTA%d: active %d + pending %d != residency %d",
				tl.SM, tl.CTA, tl.ActiveCycles, tl.PendingCycles, tl.FinishAt-tl.LaunchAt)
		}
		if tl.Activations < 1 {
			t.Errorf("SM%d/CTA%d: no activations", tl.SM, tl.CTA)
		}
		switches += tl.Switches
	}
	if switches != m.CTASwitches {
		t.Errorf("timeline switches %d != metrics switches %d", switches, m.CTASwitches)
	}
	if tbl := agg.TimelineTable(5); tbl.String() == "" {
		t.Error("empty timeline table")
	}
}

// chromeDoc mirrors the trace-event JSON envelope for validation.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   int64          `json:"ts"`
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestChromeWriterValidJSON runs a switching-heavy configuration through
// the Chrome writer and validates the emitted document: it parses, its
// slices are balanced per track, and the expected metadata is present.
func TestChromeWriterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	cw := trace.NewChromeWriter(&buf)
	g := gpu.New(testConfig(), gpu.FineRegDefault())
	g.SetTrace(cw)
	if _, err := g.Run(testKernel(t, "CS", 96)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	open := map[string]int{} // per (pid,tid) B/E balance
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		key := fmt.Sprintf("%d.%d", ev.Pid, ev.Tid)
		switch ev.Ph {
		case "B":
			open[key]++
		case "E":
			open[key]--
			if open[key] < 0 {
				t.Fatalf("unbalanced E on track %s", key)
			}
		case "M":
			if ev.Name == "process_name" || ev.Name == "thread_name" {
				names[fmt.Sprint(ev.Args["name"])] = true
			}
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Errorf("track %s left %d slices open", key, n)
		}
	}
	for _, want := range []string{"SM0", "SM1", "slot 0"} {
		if !names[want] {
			t.Errorf("missing %q metadata track", want)
		}
	}
	// Close is idempotent and must not duplicate the terminator.
	if err := cw.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("document corrupted by second close: %v", err)
	}
}

// TestChromeWriterStreamKeepsEverySegment: a multi-kernel stream reports
// one RunStart/RunEnd pair per segment, and the writer must draw every
// segment, not only the first — the document ends at Close, not at the
// first RunEnd.
func TestChromeWriterStreamKeepsEverySegment(t *testing.T) {
	var buf bytes.Buffer
	cw := trace.NewChromeWriter(&buf)
	g := gpu.New(testConfig(), gpu.FineRegDefault())
	g.SetTrace(cw)
	res, err := g.RunStream(testKernel(t, "CS", 32), testKernel(t, "NW", 32))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	seg0End := res.Segments[0].Cycles
	var later int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" && ev.Ts >= seg0End {
			later++
		}
	}
	if later == 0 {
		t.Errorf("no CTA slice starts at or after segment 0's end (cycle %d): the second kernel was not drawn", seg0End)
	}
}

// TestMulti checks the fan-out helper's collapsing rules and delivery.
func TestMulti(t *testing.T) {
	if trace.Multi() != nil {
		t.Error("Multi() should collapse to nil")
	}
	if trace.Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should collapse to nil")
	}
	a := trace.NewStallAggregator()
	if got := trace.Multi(nil, a); got != trace.Sink(a) {
		t.Error("Multi(nil, x) should collapse to x")
	}
	b := trace.NewStallAggregator()
	g := gpu.New(testConfig(), gpu.VirtualThread())
	g.SetTrace(trace.Multi(a, b))
	m, err := g.Run(testKernel(t, "NW", 8))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Breakdown().IssueCycles != m.Instructions || b.Breakdown().IssueCycles != m.Instructions {
		t.Errorf("fan-out lost events: a=%d b=%d want %d",
			a.Breakdown().IssueCycles, b.Breakdown().IssueCycles, m.Instructions)
	}
}

// TestNoopSinkRuns pins the Noop sink to the Sink contract through a real
// run (catches signature drift at compile time, panics at run time).
func TestNoopSinkRuns(t *testing.T) {
	g := gpu.New(testConfig(), gpu.Baseline())
	g.SetTrace(trace.Noop{})
	if _, err := g.Run(testKernel(t, "CS", 8)); err != nil {
		t.Fatalf("run with Noop sink: %v", err)
	}
}

// TestFullStallTimelinesMatchMetrics: every full-stall the SM counts must
// reach the sink, whichever path detected it. A warp's exit can complete
// the condition (its siblings are all long-blocked already) just as a block
// can, and that path used to bump the counter without emitting the event, so
// the timelines summed below Metrics.CTAStalls. LB's and NW's warps exit at
// different times — scheduling skew is enough — past siblings still waiting
// on memory.
func TestFullStallTimelinesMatchMetrics(t *testing.T) {
	for _, bench := range []string{"LB", "NW"} {
		for pname, pf := range policies() {
			t.Run(bench+"/"+pname, func(t *testing.T) {
				agg := trace.NewStallAggregator()
				g := gpu.New(testConfig(), pf)
				g.SetTrace(agg)
				m, err := g.Run(testKernel(t, bench, 96))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				var stalls int64
				for _, tl := range agg.Timelines() {
					stalls += tl.FullStalls
				}
				if m.CTAStalls == 0 {
					t.Fatal("no full stall in the run; the test exercised nothing")
				}
				if stalls != m.CTAStalls {
					t.Errorf("timelines count %d full stalls, Metrics.CTAStalls = %d", stalls, m.CTAStalls)
				}
			})
		}
	}
}

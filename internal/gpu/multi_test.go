package gpu

import (
	"reflect"
	"testing"

	"finereg/internal/kernels"
)

func mustKernel(t *testing.T, name string, grid int) *kernels.Kernel {
	t.Helper()
	p, err := kernels.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return kernels.MustBuild(p, grid)
}

func TestValidatePartitions(t *testing.T) {
	cases := []struct {
		numSMs int
		parts  []int
		ok     bool
	}{
		{4, nil, true},
		{4, []int{4}, true},
		{4, []int{2, 2}, true},
		{4, []int{1, 1, 1, 1}, true},
		{4, []int{3, 2}, false}, // sum > NumSMs
		{4, []int{2, 1}, false}, // sum < NumSMs
		{4, []int{4, 0}, false}, // empty partition
		{4, []int{-1, 5}, false},
	}
	for _, c := range cases {
		err := ValidatePartitions(c.numSMs, c.parts)
		if (err == nil) != c.ok {
			t.Errorf("ValidatePartitions(%d, %v) = %v, want ok=%v", c.numSMs, c.parts, err, c.ok)
		}
	}
}

// TestRunStreamFirstSegmentMatchesSoloRun pins the stream contract: the
// first segment starts on a pristine machine at cycle 0, so its metrics
// must be byte-identical to a solo Run of the same kernel.
func TestRunStreamFirstSegmentMatchesSoloRun(t *testing.T) {
	cfg := Default().Scale(2)
	k1 := mustKernel(t, "LB", 8)
	k2 := mustKernel(t, "CS", 8)

	solo, err := New(cfg, Baseline()).Run(mustKernel(t, "LB", 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg, Baseline()).RunStream(k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
	if !reflect.DeepEqual(res.Segments[0], solo) {
		t.Errorf("first stream segment differs from solo run:\nseg:  %+v\nsolo: %+v", res.Segments[0], solo)
	}
}

// TestRunStreamSingleKernelEqualsRun pins the one collection path: Run
// collects against the zero tally, a one-kernel RunStream against the
// tally taken at its bind, and both must report the same totals — for
// every policy, so the policy-specific counters are covered too.
func TestRunStreamSingleKernelEqualsRun(t *testing.T) {
	cfg := Default().Scale(2)
	for _, pf := range []PolicyFactory{Baseline(), VirtualThread(), RegDRAM(4), FineRegDefault()} {
		solo, err := New(cfg, pf).Run(mustKernel(t, "NW", 128))
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cfg, pf).RunStream(mustKernel(t, "NW", 128))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Total, solo) {
			t.Errorf("%s: stream total differs from Run:\nstream: %+v\nrun:    %+v", solo.Config, res.Total, solo)
		}
		if !reflect.DeepEqual(res.Segments[0], solo) {
			t.Errorf("%s: stream segment differs from Run:\nsegment: %+v\nrun:     %+v", solo.Config, res.Segments[0], solo)
		}
	}
}

func TestRunStreamRollup(t *testing.T) {
	cfg := Default().Scale(2)
	cfg.Audit = true // exercise the partition invariants across rebinds
	res, err := New(cfg, Baseline()).RunStream(mustKernel(t, "LB", 8), mustKernel(t, "CS", 8))
	if err != nil {
		t.Fatal(err)
	}
	var cycles, instr, l2 int64
	for _, seg := range res.Segments {
		cycles += seg.Cycles
		instr += seg.Instructions
		l2 += seg.L2Accesses
	}
	if res.Total.Cycles != cycles {
		t.Errorf("total cycles %d != segment sum %d", res.Total.Cycles, cycles)
	}
	if res.Total.Instructions != instr {
		t.Errorf("total instructions %d != segment sum %d", res.Total.Instructions, instr)
	}
	if res.Total.L2Accesses != l2 {
		t.Errorf("total L2 accesses %d != segment sum %d (stream segments own the whole hierarchy)", res.Total.L2Accesses, l2)
	}
	if res.Total.Benchmark != "LB+CS" {
		t.Errorf("rollup name = %q", res.Total.Benchmark)
	}
	if res.Total.AvgActiveThreads <= 0 {
		t.Error("rollup occupancy averages missing")
	}
}

func TestRunStreamDeterministic(t *testing.T) {
	run := func() *MultiResult {
		res, err := New(Default().Scale(2), Baseline()).RunStream(mustKernel(t, "LB", 8), mustKernel(t, "ST", 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("repeat stream runs differ")
	}
}

// TestRunConcurrentInstructionCounts pins the headline partition
// invariant: instruction streams are timing-independent, so each
// partition's instruction count equals the same kernel's solo run on a
// machine of the partition's size — only cycle counts feel the shared
// L2/DRAM contention.
func TestRunConcurrentInstructionCounts(t *testing.T) {
	cfg := Default().Scale(4)
	cfg.Partitions = []int{2, 2}
	cfg.Audit = true
	g := New(cfg, Baseline())
	res, err := g.RunConcurrent(mustKernel(t, "LB", 8), mustKernel(t, "CS", 8))
	if err != nil {
		t.Fatal(err)
	}
	soloCfg := Default().Scale(2)
	for p, name := range []string{"LB", "CS"} {
		solo, err := New(soloCfg, Baseline()).Run(mustKernel(t, name, 8))
		if err != nil {
			t.Fatal(err)
		}
		seg := res.Segments[p]
		if seg.Instructions != solo.Instructions {
			t.Errorf("partition %d (%s): %d instructions, solo run %d", p, name, seg.Instructions, solo.Instructions)
		}
		if seg.CTAsLaunched != solo.CTAsLaunched {
			t.Errorf("partition %d (%s): %d CTAs, solo run %d", p, name, seg.CTAsLaunched, solo.CTAsLaunched)
		}
	}
	if sum := res.Segments[0].Instructions + res.Segments[1].Instructions; res.Total.Instructions != sum {
		t.Errorf("total instructions %d != partition sum %d", res.Total.Instructions, sum)
	}
	if res.Total.L2Accesses == 0 {
		t.Error("shared L2 traffic missing from rollup")
	}
	if res.Segments[0].L2Accesses != 0 || res.Segments[1].L2Accesses != 0 {
		t.Error("shared-hierarchy traffic must not be attributed to partition segments")
	}
}

func TestRunConcurrentDeterministic(t *testing.T) {
	run := func() *MultiResult {
		cfg := Default().Scale(4)
		cfg.Partitions = []int{2, 2}
		res, err := New(cfg, Baseline()).RunConcurrent(mustKernel(t, "LB", 8), mustKernel(t, "ST", 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("repeat concurrent runs differ")
	}
}

func TestPartitionedMachineRejectsMismatchedEntryPoints(t *testing.T) {
	cfg := Default().Scale(4)
	cfg.Partitions = []int{2, 2}
	g := New(cfg, Baseline())
	if _, err := g.Run(mustKernel(t, "LB", 8)); err == nil {
		t.Error("Run accepted a partitioned machine")
	}
	if _, err := g.RunStream(mustKernel(t, "LB", 8)); err == nil {
		t.Error("RunStream accepted a partitioned machine")
	}
	if _, err := New(cfg, Baseline()).RunConcurrent(mustKernel(t, "LB", 8)); err == nil {
		t.Error("RunConcurrent accepted 1 kernel for 2 partitions")
	}
	if _, err := New(Default().Scale(2), Baseline()).RunStream(); err == nil {
		t.Error("RunStream accepted an empty stream")
	}
}

// TestRunConcurrentSinglePartitionMatchesRun: a one-partition concurrent
// run is the degenerate case and must reproduce Run exactly.
func TestRunConcurrentSinglePartitionMatchesRun(t *testing.T) {
	cfg := Default().Scale(2)
	solo, err := New(cfg, Baseline()).Run(mustKernel(t, "LB", 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg, Baseline()).RunConcurrent(mustKernel(t, "LB", 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Total, solo) {
		t.Errorf("degenerate concurrent run differs from Run:\nconc: %+v\nsolo: %+v", res.Total, solo)
	}
}

// TestKernelDecodedOncePerBind: the issue table is built once per bound
// kernel and shared read-only by the partition's SMs — sixteen SMs running
// one kernel hold one table, and partitions running different kernels hold
// different ones.
func TestKernelDecodedOncePerBind(t *testing.T) {
	g := New(Default(), Baseline())
	if len(g.SMs) != 16 {
		t.Fatalf("Table I machine has %d SMs, want 16", len(g.SMs))
	}
	if _, err := g.Run(mustKernel(t, "CS", 64)); err != nil {
		t.Fatal(err)
	}
	for _, s := range g.SMs {
		if s.Meta() == nil || s.Meta() != g.SMs[0].Meta() {
			t.Fatalf("SM%d holds its own issue table", s.ID)
		}
	}

	cfg := Default().Scale(4)
	cfg.Partitions = []int{2, 2}
	g = New(cfg, Baseline())
	if _, err := g.RunConcurrent(mustKernel(t, "LB", 8), mustKernel(t, "CS", 8)); err != nil {
		t.Fatal(err)
	}
	if g.SMs[0].Meta() != g.SMs[1].Meta() || g.SMs[2].Meta() != g.SMs[3].Meta() {
		t.Error("SMs of one partition hold different issue tables")
	}
	if g.SMs[0].Meta() == g.SMs[2].Meta() {
		t.Error("partitions running different kernels share an issue table")
	}
}

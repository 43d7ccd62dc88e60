package diff

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/sm"
	"finereg/internal/trace"
)

// The golden matrix pins the simulator's cycle-exact timing: every cell is
// one audited policy × scheduler run, and its Instructions, CTAsLaunched,
// and Cycles must reproduce byte-identically forever — or the fingerprint
// must be bumped and the goldens regenerated deliberately with
//
//	go test ./internal/audit/diff -run TestGoldenCycleExactness -update-golden
//
// The snapshot in testdata/golden_matrix.json was captured from the dense
// reference run loop (every SM ticked at every global step, every
// scheduler scanning its full warp list, per-step stats integration) with
// this PR's two scheduler bugfixes applied — the seq-anchored LRR rotation
// and out-of-place dropWarpsOf compaction (in-place compaction aliased an
// in-progress scheduler scan after a mid-scan CTA eviction, silently
// skipping ready warps that shifted behind the cursor) — immediately
// before the event-driven core landed. This test is therefore the proof
// that wake caching, the ready-list schedulers, and the incremental stats
// integrals are pure optimizations: same events, same cycles, same work —
// just fewer wasted scans.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_matrix.json from the current simulator")

const goldenPath = "testdata/golden_matrix.json"

// goldenCell is one matrix cell's pinned integer metrics.
type goldenCell struct {
	Label        string `json:"label"`
	Instructions int64  `json:"instructions"`
	CTAsLaunched int64  `json:"ctas_launched"`
	Cycles       int64  `json:"cycles"`
}

// goldenCase is one kernel's full 12-cell matrix. SMs is the machine size
// (0 = the audited 2-SM differential machine every case but LI and NW runs
// on).
type goldenCase struct {
	Kernel string       `json:"kernel"`
	Grid   int          `json:"grid"`
	Seed   uint64       `json:"seed,omitempty"`
	SMs    int          `json:"sms,omitempty"`
	Cells  []goldenCell `json:"cells"`
}

// config returns the case's machine: the audited 2-SM differential machine,
// or — for the cases that exist to pin event order, not accounting — an
// unaudited one of the case's size (auditing 16 SMs at every CTA transition
// costs six times the simulation; the cycle counts are the same either way).
func (gc *goldenCase) config() gpu.Config {
	if gc.SMs == 0 {
		return Config(2)
	}
	c := Config(gc.SMs)
	c.Audit = false
	return c
}

// goldenKernels returns the pinned workloads: three real Table II
// benchmarks spanning scheduler-limited and register-limited behaviour,
// two random differential kernels (identified by seed so the profile
// derivation is part of what the goldens pin), and LI and NW on the
// 16-SM machine at grids where the order in which equal-time events leave
// the SM's event heap is visible: breaking ties by push order instead
// moves both LI finereg cells under GTO and every switching-policy cell of
// NW (vt, regdram, regmutex, finereg, finereg-full, both schedulers). The
// first five cases do not notice that change; on two SMs, neither do LI
// and NW at any grid up to 768.
func goldenKernels(t *testing.T) []goldenCase {
	t.Helper()
	cases := []goldenCase{
		{Kernel: "CS", Grid: 40},
		{Kernel: "LB", Grid: 16},
		{Kernel: "SG", Grid: 16},
		{Kernel: "random", Seed: 0x5eed},
		{Kernel: "random", Seed: 0xfe11},
		{Kernel: "LI", Grid: 512, SMs: 16},
		{Kernel: "NW", Grid: 1280, SMs: 16},
	}
	for i := range cases {
		if cases[i].Kernel == "random" {
			cases[i].Grid = RandomProfile(cases[i].Seed).GridCTAs
		}
	}
	return cases
}

func (gc *goldenCase) profile(t *testing.T) kernels.Profile {
	t.Helper()
	if gc.Kernel == "random" {
		return RandomProfile(gc.Seed)
	}
	p, err := kernels.ProfileByName(gc.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenCycleExactness runs the full differential matrix for every
// pinned workload and compares each cell's integer metrics against the
// snapshot. CheckInvariance runs on each matrix as well, so a regression
// that somehow moved all policies in lockstep would still have to get past
// the absolute numbers.
func TestGoldenCycleExactness(t *testing.T) {
	if testing.Short() && !*updateGolden {
		t.Skip("golden matrix sweep skipped in -short")
	}
	cases := goldenKernels(t)
	for i := range cases {
		gc := &cases[i]
		outs, err := RunMatrix(gc.config(), gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatalf("%s/%d: %v", gc.Kernel, gc.Grid, err)
		}
		if err := CheckInvariance(outs); err != nil {
			t.Errorf("%s/%d: %v", gc.Kernel, gc.Grid, err)
		}
		for _, o := range outs {
			gc.Cells = append(gc.Cells, goldenCell{
				Label:        o.Label,
				Instructions: o.Metrics.Instructions,
				CTAsLaunched: o.Metrics.CTAsLaunched,
				Cycles:       o.Metrics.Cycles,
			})
		}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(cases, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(cases))
		return
	}

	compareGolden(t, cases)
}

// compareGolden checks the freshly computed cases against the snapshot.
func compareGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden snapshot has %d cases, test now runs %d — regenerate deliberately", len(want), len(cases))
	}
	for i := range cases {
		got, exp := cases[i], want[i]
		if got.Kernel != exp.Kernel || got.Grid != exp.Grid || got.Seed != exp.Seed || got.SMs != exp.SMs {
			t.Fatalf("case %d is %s/%d/%#x on %d SMs, golden has %s/%d/%#x on %d — regenerate deliberately",
				i, got.Kernel, got.Grid, got.Seed, got.SMs, exp.Kernel, exp.Grid, exp.Seed, exp.SMs)
		}
		if len(got.Cells) != len(exp.Cells) {
			t.Fatalf("%s: %d cells, golden has %d", got.Kernel, len(got.Cells), len(exp.Cells))
		}
		for j := range got.Cells {
			if got.Cells[j] != exp.Cells[j] {
				t.Errorf("%s cell %s drifted:\n  got  %+v\n  want %+v",
					got.Kernel, got.Cells[j].Label, got.Cells[j], exp.Cells[j])
			}
		}
	}
}

// TestGoldenProgressSampling re-runs the pinned matrix with in-run
// progress sampling enabled — a no-op callback at a short period, so
// samples fire constantly — and holds the cells to the same snapshot.
// This is the observability layer's byte-identity proof: sampling rides
// the wake schedule, never inserts an event step, and must not move a
// single cycle in any policy × scheduler cell.
func TestGoldenProgressSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix sweep skipped in -short")
	}
	var sampled atomic.Int64

	cases := goldenKernels(t)
	for i := range cases {
		gc := &cases[i]
		cfg := gc.config()
		cfg.ProgressEvery = 1024
		cfg.Progress = func(trace.ProgressSample) { sampled.Add(1) }
		outs, err := RunMatrix(cfg, gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatalf("%s/%d: %v", gc.Kernel, gc.Grid, err)
		}
		for _, o := range outs {
			gc.Cells = append(gc.Cells, goldenCell{
				Label:        o.Label,
				Instructions: o.Metrics.Instructions,
				CTAsLaunched: o.Metrics.CTAsLaunched,
				Cycles:       o.Metrics.Cycles,
			})
		}
	}
	if sampled.Load() == 0 {
		t.Fatal("progress callback never fired — the matrix ran unsampled, proving nothing")
	}
	compareGolden(t, cases)
}

// checkWakeHookInvisible runs every golden case twice — through RunMatrix as
// the other golden tests do, and on machines whose SMs were each passed to
// hook before the run — and requires the complete Metrics of every cell to be
// byte-identical.
func checkWakeHookInvisible(t *testing.T, hook func(*sm.SM)) {
	if testing.Short() {
		t.Skip("golden matrix sweep skipped in -short")
	}
	for _, gc := range goldenKernels(t) {
		plain, err := RunMatrix(gc.config(), gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatalf("%s/%d: %v", gc.Kernel, gc.Grid, err)
		}
		k, err := kernels.Build(gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatal(err)
		}
		// RunMatrix's order: schedulers outermost, then Policies().
		for i, sched := range []sm.SchedKind{sm.SchedGTO, sm.SchedLRR} {
			for j, pol := range Policies() {
				cfg := gc.config()
				cfg.SM.Scheduler = sched
				pf, err := pol.Factory()
				if err != nil {
					t.Fatal(err)
				}
				machine := gpu.New(cfg, pf)
				for _, s := range machine.SMs {
					hook(s)
				}
				cell := plain[i*len(Policies())+j]
				m, err := machine.Run(k)
				if err != nil {
					t.Fatalf("%s: %v", cell.Label, err)
				}
				got, _ := json.Marshal(m)
				want, _ := json.Marshal(cell.Metrics)
				if string(got) != string(want) {
					t.Errorf("%s: metrics moved under the wake hook:\n  got  %s\n  want %s", cell.Label, got, want)
				}
			}
		}
	}
}

// TestWakeRingIsPureImplementation routes every wake-up through the event
// queue, whose sort key is the specified order (DESIGN.md §4), and requires
// the golden matrix — both schedulers, all policies — to come out identical:
// the wake ring changes where a wake-up waits, never when or in what order
// anything observable happens.
func TestWakeRingIsPureImplementation(t *testing.T) {
	checkWakeHookInvisible(t, (*sm.SM).InjectQueueOnlyWakes)
}

// TestSameCycleWakeOrderUnobservable delivers the wake-ups of a cycle in a
// scrambled order and requires every golden cell's complete Metrics to stay
// byte-identical. The specification leaves that order open because wake-ups
// commute (a ready bit, a counter, the long-blocked bookkeeping); this is the
// proof that they do, and what lets the ring deliver them in position order.
func TestSameCycleWakeOrderUnobservable(t *testing.T) {
	checkWakeHookInvisible(t, (*sm.SM).InjectScrambledWakes)
}

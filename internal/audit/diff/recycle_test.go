package diff

import (
	"context"
	"errors"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/sm"
)

// dirtyPool runs, and releases, the machines that leave the most behind in
// the SMs they hand to later runs: a 16-SM FineReg NW run under LRR; runs
// stopped by their cycle budget with CTAs resident, wake-ups pending and
// ring bits set — one of them on SMs of 256 warps a scheduler, whose wake
// rings and ready masks have grown; LB and ST runs on the 2-SM machine, so
// the pool holds SMs that ran different kernels; and a stall-attribution
// job, whose SMs carry a trace sink.
func dirtyPool(t *testing.T) {
	t.Helper()
	build := func(name string, grid int) *kernels.Kernel {
		p, err := kernels.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return kernels.MustBuild(p, grid)
	}
	run := func(cfg gpu.Config, pf gpu.PolicyFactory, want error, k *kernels.Kernel) {
		t.Helper()
		g := gpu.New(cfg, pf)
		defer g.Release()
		if _, err := g.Run(k); !errors.Is(err, want) {
			t.Fatalf("dirtying run: %v, want %v", err, want)
		}
	}
	lrr := gpu.Default()
	lrr.SM.Scheduler = sm.SchedLRR
	run(lrr, gpu.FineRegDefault(), nil, build("NW", 256))

	stopped := Config(2)
	stopped.Audit, stopped.MaxCycles = false, 4000
	run(stopped, gpu.FineRegDefault(), gpu.ErrCycleBudget, build("NW", 64))

	wide := stopped
	wide.SM.MaxWarps, wide.SM.NumSchedulers = 512, 2
	wide.SM.MaxCTAs, wide.SM.MaxResidentCTAs, wide.SM.MaxThreads = 256, 256, 512*32
	wide.SM.RegFileBytes, wide.SM.SharedMemBytes = 512*16*sm.WarpRegBytes, 256*2048
	run(wide, gpu.Baseline(), gpu.ErrCycleBudget, build("CS", 512))

	run(Config(2), gpu.VirtualThread(), nil, build("LB", 8))
	run(Config(2), gpu.VirtualThread(), nil, build("ST", 8))

	p, err := kernels.ProfileByName("LB")
	if err != nil {
		t.Fatal(err)
	}
	j := &runner.Job{Cfg: gpu.Default().Scale(2), Profile: p, Grid: 32, Policy: runner.VTRegMutex(0.25), Stalls: true}
	if _, err := runner.Simulate(context.Background(), "", j); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledMachineMatchesFresh: a machine built from released SMs must
// be the machine a fresh build is. Before each golden case the pool is
// dirtied with the runs that leave the most behind (dirtyPool), then the
// case's whole matrix runs audited — every policy, both schedulers — and
// must reproduce the pinned goldens, which were recorded on fresh machines.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix sweep skipped in -short")
	}
	cases := goldenKernels(t)
	for i := range cases {
		gc := &cases[i]
		dirtyPool(t)
		cfg := gc.config()
		cfg.Audit = true
		outs, err := RunMatrix(cfg, gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatalf("%s/%d on recycled SMs: %v", gc.Kernel, gc.Grid, err)
		}
		if err := CheckInvariance(outs); err != nil {
			t.Errorf("%s/%d on recycled SMs: %v", gc.Kernel, gc.Grid, err)
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
	compareGolden(t, cases)
}

// Package diff is the differential-validation layer on top of the runtime
// invariant auditor (internal/audit): it runs the same kernel under every
// register-file policy and both warp schedulers — with the auditor enabled
// on every run — and checks the cross-policy invariants. The executed
// instruction stream is a property of the kernel, not of the policy: CTA
// switching changes *when* warps run, never *what* they execute, so the
// instruction, shared-access, launch, and demand register-file traffic
// counts must agree across all runs of a matrix.
//
// FineReg's context movement inflates the raw register-file counters: a
// PCRF eviction re-reads the live registers from the ACRF (RFReads += n,
// PCRFWrites += n) and a restore writes them back (RFWrites += n,
// PCRFReads += n), one-for-one. The demand-only projection therefore
// subtracts the context traffic — RFReads − PCRFWrites and
// RFWrites − PCRFReads are policy-invariant even though the raw counters
// are not.
//
// The matrix also doubles as the auditor's widest test fixture: every run
// executes with gpu.Config.Audit set, so a single RunMatrix sweeps all six
// policies' accounting through launch, stall, switch, resume, and finish
// transitions under both schedulers.
package diff

import (
	"errors"
	"fmt"

	"finereg/internal/gpu"
	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// Policies returns the six evaluated configurations: the five of the
// paper's Figure 12/13 legends plus the finereg-full ablation (full
// register sets in the PCRF), which exercises a different eviction size
// accounting path.
func Policies() []runner.PolicySpec {
	return []runner.PolicySpec{
		runner.Baseline(),
		runner.VirtualThread(),
		runner.RegDRAM(2),
		runner.VTRegMutex(0.25),
		runner.FineRegDefault(),
		runner.FineRegFull(128<<10, 128<<10),
	}
}

// Config returns a small audited machine for differential runs: n SMs with
// proportionally scaled shared resources, the invariant auditor enabled,
// and a sweep interval tight enough that periodic invariants (not just
// transition-triggered ones) fire many times even on short kernels.
func Config(sms int) gpu.Config {
	cfg := gpu.Default().Scale(sms)
	cfg.Audit = true
	cfg.AuditInterval = 512
	return cfg
}

// Counts is the policy-invariant projection of a run's metrics. RFReads
// and RFWrites here are demand-only (context traffic subtracted); see the
// package comment.
type Counts struct {
	Instructions   int64
	SharedAccesses int64
	CTAsLaunched   int64
	RFReads        int64
	RFWrites       int64
}

// CountsOf projects metrics onto the policy-invariant counts.
func CountsOf(m *stats.Metrics) Counts {
	return Counts{
		Instructions:   m.Instructions,
		SharedAccesses: m.SharedAccesses,
		CTAsLaunched:   m.CTAsLaunched,
		RFReads:        m.RFReads - m.PCRFWrites,
		RFWrites:       m.RFWrites - m.PCRFReads,
	}
}

// Outcome is one cell of a differential matrix.
type Outcome struct {
	// Label is "bench/scheduler/policy".
	Label   string
	Counts  Counts
	Metrics *stats.Metrics
}

// matrixJobs is RunMatrix's job list: schedulers outermost, then Policies().
func matrixJobs(cfg gpu.Config, p kernels.Profile, grid int) []*runner.Job {
	scheds := []struct {
		name string
		kind sm.SchedKind
	}{{"gto", sm.SchedGTO}, {"lrr", sm.SchedLRR}}

	var jobList []*runner.Job
	for _, sched := range scheds {
		c := cfg
		c.SM.Scheduler = sched.kind
		for _, pol := range Policies() {
			jobList = append(jobList, &runner.Job{
				Cfg:     c,
				Profile: p,
				Grid:    grid,
				Policy:  pol,
				Label:   fmt.Sprintf("%s/%s/%s", p.Abbrev, sched.name, pol.Name()),
			})
		}
	}
	return jobList
}

// RunMatrix runs profile×grid under every policy and both schedulers on
// audited copies of cfg and returns the outcomes in a fixed order. Any
// run failure — including an audit violation — fails the whole matrix.
func RunMatrix(cfg gpu.Config, p kernels.Profile, grid int) ([]Outcome, error) {
	jobList := matrixJobs(cfg, p, grid)
	eng := &runner.Engine{Cache: runner.NewCache("")}
	batch := eng.Run(jobList)

	var errs []error
	out := make([]Outcome, 0, len(jobList))
	for i, j := range jobList {
		if err := batch.Errs[i]; err != nil {
			errs = append(errs, err)
			continue
		}
		m := batch.Results[i].Metrics
		out = append(out, Outcome{Label: j.Label, Counts: CountsOf(m), Metrics: m})
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// CheckInvariance verifies that every outcome's policy-invariant counts
// match the first one, returning a descriptive error on the first
// divergence.
func CheckInvariance(outs []Outcome) error {
	if len(outs) < 2 {
		return fmt.Errorf("diff: matrix too small (%d outcomes)", len(outs))
	}
	ref := outs[0]
	for _, o := range outs[1:] {
		if o.Counts != ref.Counts {
			return fmt.Errorf("diff: policy-variant execution:\n  %-40s %+v\n  %-40s %+v",
				ref.Label, ref.Counts, o.Label, o.Counts)
		}
	}
	return nil
}

// rng is splitmix64 — a tiny deterministic generator so random profiles
// are reproducible from their seed alone (the fuzz corpus stores seeds,
// not profiles).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// RandomProfile derives a small but valid kernel profile from seed: the
// register split, shared-memory footprint, loop shape, memory mix, and
// access pattern all vary, within the generator's constraints (see
// kernels.Build) and sized so a full 12-run matrix stays test-fast. The
// same seed always yields the same profile.
func RandomProfile(seed uint64) kernels.Profile {
	r := &rng{s: seed}

	// Register layout: 3 reserved + persistent + temps + cold, max 36 of
	// the ISA's 64 — spans scheduler-limited through register-limited
	// occupancy on the default SM.
	persistent := 1 + r.intn(20)
	cold := r.intn(8)
	temps := 1 + r.intn(6)

	sharedMem := []int{0, 1 << 10, 4 << 10, 8 << 10}[r.intn(4)]
	shmemPerIter := 0
	if sharedMem > 0 {
		shmemPerIter = r.intn(4)
	}
	streamLoads := r.intn(3)
	hotLoads := r.intn(3)
	if streamLoads+hotLoads == 0 {
		streamLoads = 1
	}

	return kernels.Profile{
		Abbrev:         fmt.Sprintf("R%x", seed),
		Name:           "random differential kernel",
		Suite:          "audit/diff",
		WarpsPerCTA:    1 + r.intn(4),
		Regs:           3 + persistent + cold + temps,
		Persistent:     persistent,
		ColdRegs:       cold,
		SharedMem:      sharedMem,
		LoopTrips:      1 + r.intn(6),
		StreamLoads:    streamLoads,
		HotLoads:       hotLoads,
		HotKB:          []int{0, 16, 32, 64}[r.intn(4)],
		ComputePerIter: r.intn(16),
		SFUPerIter:     r.intn(3),
		ShmemPerIter:   shmemPerIter,
		Pattern:        []isa.Pattern{isa.PatCoalesced, isa.PatStrided, isa.PatRandom}[r.intn(3)],
		Stride:         1 + r.intn(8),
		FootprintKB:    256 * (1 + r.intn(8)),
		StorePeriod:    r.intn(3),
		GridCTAs:       8 + r.intn(17),
	}
}

// Package runner is the simulation run engine: it turns every simulation
// into a schedulable Job with a deterministic content-addressed key,
// executes job sets on a worker pool, dedups repeated points through an
// in-memory + on-disk result cache, and isolates faults (panics, wall-clock
// timeouts) to the job that caused them. Results come back in submission
// order, so a batch at -jobs N renders byte-identically to -jobs 1.
//
// The layering mirrors the rest of the repository: the simulator
// (internal/gpu and below) stays single-threaded and is never shared —
// each job builds a fresh kernel, GPU, and trace sink — while the engine
// owns all cross-goroutine state.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/stats"
	"finereg/internal/trace"
	"finereg/internal/workload"
)

// SimFingerprint versions the simulator's observable semantics. It is part
// of every job key, so bumping it invalidates all cached results at once;
// bump it whenever a change to the timing model, kernel generation, or
// metric collection can alter any simulation outcome.
//
// v2: DRAM completion cycles round up instead of truncating, and the LRR
// scheduler became a true round-robin — both change timing everywhere.
//
// v3: the LRR rotation anchor survives mid-rotation CTA eviction (it was
// reset to slot 0 whenever the last-issued warp's CTA left the scheduler),
// and scheduler scans see a stable snapshot of the warp list (in-place
// compaction under an in-progress scan could skip ready warps). Both
// change timing on switch-heavy LRR runs. The event-driven run loop that
// landed alongside is timing-neutral — pinned byte-identical by
// audit/diff's golden matrix.
//
// v4: Metrics.RegDepletionStallCycles is now the sum across SMs instead
// of a truncating per-SM average (the division dropped up to NumSMs−1
// cycles). Timing is untouched — only this serialized metric changes —
// but cached results carry it, so the fingerprint moves. gpu.Config
// fields tagged json:"-" never enter the key, so adding or removing one
// needs no bump; TestJobKeyStableAndSensitive pins a literal key to check
// that.
//
// v5: an SM's same-cycle event order is specified instead of inherited from
// a binary heap's sift history (DESIGN.md §4): a cycle's warp wake-ups are
// delivered before its CTA-ready checks, and the checks in the order they
// were scheduled. Twelve of the 24 sixteen-SM LI/NW golden cells move.
const SimFingerprint = "finereg-sim-v5"

// Job is one schedulable simulation: a machine configuration, a workload
// (either a kernel profile + grid, or user-supplied Programs), a policy,
// and instrumentation flags. The zero-value fields all participate in the
// key, so two Jobs with equal exported fields are the same point.
type Job struct {
	Cfg     gpu.Config
	Profile kernels.Profile
	Grid    int
	Policy  PolicySpec
	// TrackReg enables the Figure 5 register-usage windows.
	TrackReg bool
	// Stalls attaches a stall-attribution aggregator; the result's
	// Metrics.Stalls carries the verified breakdown.
	Stalls bool

	// Programs, when non-empty, is the job's workload instead of
	// Profile/Grid: user .sasm source or bench references lowered through
	// internal/workload. One program on an unpartitioned machine is a
	// plain run; several programs run as an in-order stream; with
	// Cfg.Partitions set, exactly one program per partition runs
	// concurrently MPS-style. The program text is hashed into the job key,
	// so a job's cache identity changes iff its programs change.
	Programs []workload.Program

	// Label is a human-readable tag for progress lines and errors; it is
	// NOT part of the key.
	Label string
}

// label returns Label or a synthesized workload/policy tag.
func (j *Job) label() string {
	if j.Label != "" {
		return j.Label
	}
	if len(j.Programs) > 0 {
		names := make([]string, len(j.Programs))
		for i, p := range j.Programs {
			if p.Bench != "" {
				names[i] = p.Bench
			} else {
				names[i] = "user"
			}
		}
		return strings.Join(names, "+") + "/" + j.Policy.Name()
	}
	return j.Profile.Abbrev + "/" + j.Policy.Name()
}

// Key returns the content-addressed identity of the job: the hex SHA-256
// of the canonical JSON encoding of (fingerprint, config, profile, grid,
// policy, instrumentation). Go's encoding/json emits struct fields in
// declaration order, so the encoding — and therefore the key — is stable
// for a given simulator version. The encoding is json.Marshal's, streamed
// into the hash rather than copied out first.
func (j *Job) Key(fingerprint string) string {
	payload := struct {
		Fingerprint string             `json:"fingerprint"`
		Cfg         gpu.Config         `json:"cfg"`
		Profile     kernels.Profile    `json:"profile"`
		Grid        int                `json:"grid"`
		Policy      PolicySpec         `json:"policy"`
		TrackReg    bool               `json:"track_reg"`
		Stalls      bool               `json:"stalls"`
		Programs    []workload.Program `json:"programs,omitempty"`
	}{fingerprint, j.Cfg, j.Profile, j.Grid, j.Policy, j.TrackReg, j.Stalls, j.Programs}
	h := &trimLast{w: sha256.New()}
	if err := json.NewEncoder(h).Encode(payload); err != nil {
		// All field types are plain values; failure here is a programming
		// error in the job definition, not a runtime condition.
		panic(fmt.Sprintf("runner: job key encoding: %v", err))
	}
	var sum [sha256.Size]byte
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], h.w.Sum(sum[:0]))
	return string(key[:])
}

// trimLast passes on everything written to it but the last byte, which it
// holds back: what json.Encoder.Encode writes, minus the newline it ends
// every value with, however the encoder splits its writes.
type trimLast struct {
	w    hash.Hash
	last [1]byte
	held bool
}

func (t *trimLast) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if t.held {
		t.w.Write(t.last[:]) // a hash.Hash never returns an error
	}
	t.w.Write(p[:len(p)-1])
	t.last[0], t.held = p[len(p)-1], true
	return len(p), nil
}

// Result is one job's outcome. Stall breakdowns ride inside
// Metrics.Stalls; energy is derived downstream (it is a pure function of
// the metrics and the machine size).
type Result struct {
	Metrics *stats.Metrics
	// Segments holds per-kernel metrics for multi-kernel jobs (streams and
	// partitioned concurrent runs) in submission order; Metrics is then
	// the combined rollup.
	Segments []*stats.Metrics `json:",omitempty"`
	// Windows holds the Figure 5 register-usage fractions when TrackReg
	// was set.
	Windows []float64 `json:",omitempty"`
}

// Clone returns an independent deep copy. Every consumer of a cached or
// deduplicated result receives its own clone, so relabeling Metrics.Config
// or attaching data never corrupts the cache or a sibling job.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := &Result{Metrics: r.Metrics.Clone()}
	for _, s := range r.Segments {
		c.Segments = append(c.Segments, s.Clone())
	}
	if r.Windows != nil {
		c.Windows = append([]float64(nil), r.Windows...)
	}
	return c
}

// Simulate is the default Executor: it runs the simulation for j from
// scratch — fresh kernel, fresh GPU, fresh per-job trace sink — and stops it
// through gpu.Stop when ctx ends. It touches no shared state, so any number
// of calls may run concurrently.
//
// The job's Cfg may carry a Progress callback (excluded from the key, so
// observed and unobserved runs share cache entries); the engine wraps it
// via withProgress to splice in JobProgress event forwarding.
func Simulate(ctx context.Context, _ string, j *Job) (*Result, error) {
	pf, err := j.Policy.Factory()
	if err != nil {
		return nil, err
	}
	cfg := j.Cfg
	cfg.SM.TrackRegUsage = j.TrackReg
	var ks []*kernels.Kernel
	if len(j.Programs) > 0 {
		ks, err = workload.LoadAll(j.Programs, j.Cfg.SM.Limits())
	} else {
		var k *kernels.Kernel
		k, err = kernels.Build(j.Profile, j.Grid)
		ks = []*kernels.Kernel{k}
	}
	if err != nil {
		return nil, err
	}
	machine := gpu.New(cfg, pf)
	defer context.AfterFunc(ctx, machine.Stop)()
	if ctx.Err() != nil {
		machine.Stop() // AfterFunc stops from its own goroutine; an expired budget must not race the run
	}
	var agg *trace.StallAggregator
	if j.Stalls {
		agg = trace.NewStallAggregator()
		machine.SetTrace(agg)
	}
	res := &Result{}
	switch {
	case len(cfg.Partitions) > 0:
		mr, err := machine.RunConcurrent(ks...)
		if err != nil {
			return nil, err
		}
		res.Metrics, res.Segments = mr.Total, mr.Segments
	case len(ks) > 1:
		mr, err := machine.RunStream(ks...)
		if err != nil {
			return nil, err
		}
		res.Metrics, res.Segments = mr.Total, mr.Segments
	default:
		m, err := machine.Run(ks[0])
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	}
	if agg != nil {
		bd := agg.Breakdown()
		if err := bd.Check(); err != nil {
			return nil, fmt.Errorf("stall accounting: %w", err)
		}
		res.Metrics.Stalls = bd
	}
	if j.TrackReg {
		res.Windows = machine.RegWindowFracs()
	}
	return res, nil
}

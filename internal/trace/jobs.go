package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// JobSink extends the observability layer from simulated time to harness
// time: the run engine (internal/runner) reports job lifecycle events —
// queued, in-run progress, done — through this interface, the
// job-scheduling counterpart of Sink's cycle-level stream. The engine
// serializes calls (one event at a time, from worker goroutines), so
// implementations need no locking of their own against the engine;
// Progress locks anyway because CLIs may share it across engines.
type JobSink interface {
	// JobsQueued: n more jobs were handed to the engine (a batch's size, or
	// 1 for a single served job).
	JobsQueued(n int)
	// JobProgress: the executing job labelled label emitted a periodic
	// progress sample (only when progress sampling is enabled; cached and
	// deduped jobs emit none).
	JobProgress(label string, sample ProgressSample)
	// JobDone: one job finished. cached reports whether the result came
	// from the content-addressed cache or from a duplicate in-flight job
	// rather than a fresh execution.
	JobDone(cached bool, err error)
}

// ProgressSample is one in-run observation of a simulation, emitted by
// gpu.Run's Progress callback on the event core's wake schedule (the
// first event step at or after each ProgressEvery-cycle boundary, plus a
// Final sample at run end). Samples are observation only — they never
// feed stats.Metrics, so results are byte-identical with sampling on or
// off.
type ProgressSample struct {
	// Cycle is the simulated cycle of the sample; CycleDelta the cycles
	// simulated since the previous sample (== Cycle on the first), so
	// consumers accumulate totals without tracking per-job state.
	Cycle      int64 `json:"cycle"`
	CycleDelta int64 `json:"cycle_delta"`
	// GridCTAs is the kernel's total grid; CTAsLaunched/CTAsRetired the
	// cumulative launch and completion counts at the sample point
	// (launched - retired CTAs are resident).
	GridCTAs     int64 `json:"grid_ctas"`
	CTAsLaunched int64 `json:"ctas_launched"`
	CTAsRetired  int64 `json:"ctas_retired"`
	// Instructions is the cumulative warp-instruction count.
	Instructions int64 `json:"instructions"`
	// WallMS is wall-clock milliseconds since the run started;
	// CyclesPerSec the live simulation rate over the last inter-sample
	// window.
	WallMS       int64   `json:"wall_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Final marks the end-of-run sample (cumulative fields are totals).
	Final bool `json:"final,omitempty"`
	// Ops is the sparse op-count delta since the previous sample (keys
	// from gpu.OpNames: CTA launches, PCRF spills, DMA transfers, DRAM
	// bytes, ...; zero entries omitted). Counts are differences of the
	// run's own machine counters, so they attribute exactly to this job
	// with any number of concurrent jobs in flight — a job's deltas sum
	// to precisely its own totals.
	Ops map[string]int64 `json:"ops,omitempty"`
}

// Progress is a JobSink that renders a single live status line — jobs
// done/total, cache hits, failures, throughput, and (when jobs emit
// progress samples) cumulative simulated cycles with the live
// sim-cycles/s rate — rewriting it in place with carriage returns. Point
// it at stderr so machine-readable stdout stays clean. Counts accumulate
// across batches (one experiments run issues many), so the line shows
// whole-invocation throughput. Call Close when done to terminate the
// line.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	start   time.Time
	total   int
	done    int
	cached  int
	failed  int
	lastLen int

	// simCycles accumulates ProgressSample.CycleDelta across jobs; rate
	// rendering derives from it and wall time. lastSample throttles
	// sample-driven rerenders so high-frequency sampling cannot flood the
	// terminal (lifecycle events always render).
	simCycles  int64
	sawSample  bool
	lastSample time.Time
}

// sampleRenderPeriod caps how often JobProgress rewrites the line.
const sampleRenderPeriod = 100 * time.Millisecond

// NewProgress returns a Progress writing to w (conventionally os.Stderr).
func NewProgress(w io.Writer) *Progress { return &Progress{w: w} }

// JobsQueued implements JobSink.
func (p *Progress) JobsQueued(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.total += n
	p.render()
}

// JobProgress implements JobSink: cumulative cycles feed the status
// line's live rate. Rerenders are throttled to sampleRenderPeriod.
func (p *Progress) JobProgress(_ string, s ProgressSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.simCycles += s.CycleDelta
	p.sawSample = true
	if now := time.Now(); now.Sub(p.lastSample) >= sampleRenderPeriod {
		p.lastSample = now
		p.render()
	}
}

// JobDone implements JobSink.
func (p *Progress) JobDone(cached bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if cached {
		p.cached++
	}
	if err != nil {
		p.failed++
	}
	p.render()
}

// Close terminates the status line (no-op if nothing was rendered).
func (p *Progress) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastLen > 0 {
		fmt.Fprintln(p.w)
		p.lastLen = 0
	}
}

// render rewrites the status line in place; the caller holds p.mu.
func (p *Progress) render() {
	elapsed := time.Since(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.done) / elapsed
	}
	line := fmt.Sprintf("jobs %d/%d done (%d cached, %d failed) %.1f jobs/s",
		p.done, p.total, p.cached, p.failed, rate)
	if p.sawSample {
		cycRate := 0.0
		if elapsed > 0 {
			cycRate = float64(p.simCycles) / elapsed
		}
		line += fmt.Sprintf(" | %s cyc @ %s cyc/s", siCount(p.simCycles), siCount(int64(cycRate)))
	}
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLen = len(line)
}

// siCount renders a count with an SI magnitude suffix (1.5M, 820k).
func siCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

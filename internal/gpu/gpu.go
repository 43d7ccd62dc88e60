// Package gpu assembles the full machine: NumSMs streaming multiprocessors
// sharing an L2 and a DRAM channel, a grid dispatcher, and the run loop
// that advances all SMs in lockstep (skipping globally idle gaps) until
// the kernel's grid drains. It produces the stats.Metrics every experiment
// consumes.
package gpu

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"finereg/internal/audit"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
	"finereg/internal/stats"
	"finereg/internal/trace"
)

// Config is the whole-GPU configuration (Table I by default).
type Config struct {
	NumSMs int
	SM     sm.Config

	L2Bytes, L2Ways int
	// DRAMLatency is the unloaded off-chip latency in core cycles;
	// DRAMBytesPerCycle the channel bandwidth (352.5 GB/s at 1126 MHz ≈
	// 313 bytes/cycle for the full chip).
	DRAMLatency       int64
	DRAMBytesPerCycle float64
	Lat               mem.Latencies

	// MaxCycles aborts runaway simulations (0 = the default guard, 2×10⁸
	// cycles). A run never passes cycle 2³¹−2 whatever the budget: the SM
	// scoreboard holds cycles as int32, saturating at 2³¹−1, and a clock
	// below that never mistakes a saturated entry for a due one.
	// runner.Job.Validate refuses a budget of 2³¹ or more.
	MaxCycles int64

	// Audit enables the runtime invariant auditor (internal/audit): SM
	// occupancy counters and per-policy register accounting are re-derived
	// from first principles every AuditInterval cycles and at every CTA
	// lifecycle transition. A violation aborts Run with a typed
	// *audit.Violation carrying a full state dump. Part of the runner.Job
	// key (audited and unaudited runs are distinct cache entries).
	Audit bool
	// AuditInterval overrides the periodic sweep period in cycles
	// (0 = audit.DefaultInterval). Transitions are audited regardless.
	AuditInterval int64
	// AuditCollect switches the auditor from fail-fast to collect-all:
	// violations are recorded instead of aborting, and the run ends with a
	// *audit.ViolationSet summarizing every drift found. Excluded from the
	// job key (json:"-") — it changes failure reporting, not simulation
	// behaviour, so collected and fail-fast runs share cache entries.
	AuditCollect bool `json:"-"`

	// Progress, when non-nil, receives periodic trace.ProgressSample
	// observations from Run: one at the first event step at or after each
	// ProgressEvery-cycle boundary, plus a Final sample at run end.
	// Sampling is event-core-aware — it piggybacks on the wake schedule
	// and never adds an event step — so metrics are byte-identical with
	// Progress on or off (pinned by audit/diff's golden matrix). Both
	// fields are excluded from the job key (json:"-"), like AuditCollect:
	// they change observation, not simulation, so sampled and unsampled
	// runs share cache entries. The callback runs on the simulating
	// goroutine; a slow callback slows the run.
	Progress func(trace.ProgressSample) `json:"-"`
	// ProgressEvery is the sample period in simulated cycles
	// (0 = DefaultProgressEvery).
	ProgressEvery int64 `json:"-"`

	// Partitions, when non-empty, statically partitions the machine
	// MPS-style: entry p is partition p's SM count, partitions occupy
	// disjoint contiguous SM index ranges in declaration order, and the
	// entries must sum to NumSMs (ValidatePartitions checks; New panics on
	// violation, so network input is validated at admission). Each
	// partition gets a private grid dispatcher while all partitions share
	// the L2 and DRAM channel, so RunConcurrent kernels contend in the
	// memory hierarchy but can never steal each other's CTA slots. Empty
	// means one partition spanning the whole machine. Part of the
	// runner.Job key (omitempty keeps legacy keys byte-identical).
	Partitions []int `json:",omitempty"`
}

// ValidatePartitions reports whether parts is a valid MPS-style static
// partitioning of numSMs SMs: every entry >= 1 and the entries sum to
// numSMs. Empty parts — the unpartitioned machine — is always valid.
func ValidatePartitions(numSMs int, parts []int) error {
	_, err := partitionSpans(numSMs, parts)
	return err
}

// partitionSpans lowers a partition spec to [lo, hi) SM index ranges.
func partitionSpans(numSMs int, parts []int) ([][2]int, error) {
	if len(parts) == 0 {
		return [][2]int{{0, numSMs}}, nil
	}
	spans := make([][2]int, len(parts))
	lo := 0
	for p, n := range parts {
		if n < 1 {
			return nil, fmt.Errorf("gpu: partition %d has %d SMs, want >= 1", p, n)
		}
		spans[p] = [2]int{lo, lo + n}
		lo += n
	}
	if lo != numSMs {
		return nil, fmt.Errorf("gpu: partitions sum to %d SMs, machine has %d", lo, numSMs)
	}
	return spans, nil
}

// DefaultProgressEvery is the Progress sample period when
// Config.ProgressEvery is zero: ~15 samples/s at the event core's typical
// 1-2M sim-cycles/s, comfortably amortizing the O(NumSMs) sample cost.
const DefaultProgressEvery = 100_000

// Default returns the Table I machine.
func Default() Config {
	return Config{
		NumSMs:            16,
		SM:                sm.Default(),
		L2Bytes:           2 << 20,
		L2Ways:            8,
		DRAMLatency:       600,
		DRAMBytesPerCycle: 313,
		Lat:               mem.DefaultLatencies(),
	}
}

// Scale resizes the machine to n SMs, scaling DRAM bandwidth and L2
// capacity proportionally so per-SM behaviour is preserved (used by the
// Figure 18 sweep and by fast test configurations).
func (c Config) Scale(n int) Config {
	ratio := float64(n) / float64(c.NumSMs)
	c.DRAMBytesPerCycle *= ratio
	l2 := int(float64(c.L2Bytes) * ratio)
	// Keep a whole number of sets.
	unit := c.L2Ways * mem.LineBytes
	if l2 < unit {
		l2 = unit
	}
	c.L2Bytes = l2 / unit * unit
	c.NumSMs = n
	return c
}

// PolicyFactory builds one policy instance per SM.
type PolicyFactory func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy

// dispatcher hands out grid CTA IDs first-come-first-served.
type dispatcher struct {
	next, total int
}

func (d *dispatcher) NextCTAID() int {
	if d.next >= d.total {
		return -1
	}
	id := d.next
	d.next++
	return id
}

func (d *dispatcher) Remaining() int { return d.total - d.next }

// GPU is one simulated machine instance. Build a fresh GPU per run.
type GPU struct {
	Cfg  Config
	Hier *mem.Hierarchy
	SMs  []*sm.SM
	// disps holds one grid dispatcher per partition (exactly one on an
	// unpartitioned machine); spans[p] is partition p's [lo, hi) SM range.
	disps []*dispatcher
	spans [][2]int
	sink  trace.Sink
	stop  atomic.Bool
}

// Stop asynchronously aborts a running simulation: the next event step of
// Run observes the flag and returns ErrInterrupted. Safe to call from any
// goroutine (the run engine's per-job wall-clock timeout uses it); calling
// it on an idle GPU makes the next Run fail fast.
func (g *GPU) Stop() { g.stop.Store(true) }

// SetTrace attaches an event sink to every SM and to the run loop. Pass
// nil to detach. The zero-sink (nil) path costs one pointer check per
// emission site, so an untraced run is unaffected.
func (g *GPU) SetTrace(t trace.Sink) {
	g.sink = t
	for _, s := range g.SMs {
		s.SetTrace(t)
	}
}

// New constructs the GPU with one policy instance per SM; every SM and
// policy shares the one memory hierarchy.
func New(cfg Config, pf PolicyFactory) *GPU {
	spans, err := partitionSpans(cfg.NumSMs, cfg.Partitions)
	if err != nil {
		// runner.Job.Validate rejects invalid specs at admission; reaching
		// here with one is a caller bug, not a data error.
		panic(err)
	}
	hier := mem.NewHierarchy(cfg.L2Bytes, cfg.L2Ways, cfg.DRAMLatency, cfg.DRAMBytesPerCycle, cfg.Lat)
	g := &GPU{Cfg: cfg, Hier: hier, spans: spans}
	for range spans {
		g.disps = append(g.disps, &dispatcher{})
	}
	p := 0
	for i := 0; i < cfg.NumSMs; i++ {
		for i >= spans[p][1] {
			p++
		}
		g.SMs = append(g.SMs, sm.New(i, cfg.SM, hier, g.disps[p], pf(cfg.SM, hier)))
	}
	return g
}

// ErrDeadlock is returned when residents remain but no SM can make
// progress — always a policy bug, surfaced rather than hung.
var ErrDeadlock = errors.New("gpu: simulation deadlock")

// ErrCycleBudget is returned when the MaxCycles guard trips.
var ErrCycleBudget = errors.New("gpu: cycle budget exceeded")

// ErrInterrupted is returned when Stop aborts a simulation.
var ErrInterrupted = errors.New("gpu: simulation interrupted")

const farFuture = int64(1) << 62

// progressState carries one run's sampling bookkeeping: the next sample
// boundary and the previous sample's wall time and counter tally (for the
// live rate and the Ops deltas).
type progressState struct {
	cb     func(trace.ProgressSample)
	every  int64
	nextAt int64

	start    time.Time
	lastWall time.Time
	last     tally
}

func newProgressState(cb func(trace.ProgressSample), every int64) *progressState {
	if every <= 0 {
		every = DefaultProgressEvery
	}
	now := time.Now()
	return &progressState{
		cb:       cb,
		every:    every,
		nextAt:   every, // no sample at cycle 0
		start:    now,
		lastWall: now,
	}
}

// sampleProgress collects one observation at cycle now and invokes the
// callback. It reads SM counters but mutates nothing in the machine, so
// the event sequence — and every metric — is unchanged by sampling. Ops
// is this machine's own counters since the previous sample, so it is
// exact for its run however many simulations share the process.
func (g *GPU) sampleProgress(p *progressState, now int64, final bool) {
	wall := time.Now()
	cur := g.tally(g.SMs, now)
	delta := cur.since(p.last)
	rate := 0.0
	if dt := wall.Sub(p.lastWall).Seconds(); dt > 0 {
		rate = float64(delta.n[opCycles]) / dt
	}
	var grid int64
	for _, d := range g.disps {
		grid += int64(d.total)
	}
	sample := trace.ProgressSample{
		Cycle:        now,
		CycleDelta:   delta.n[opCycles],
		GridCTAs:     grid,
		CTAsLaunched: cur.n[opCTALaunches],
		CTAsRetired:  cur.n[opCTARetired],
		Instructions: cur.n[opInstructions],
		WallMS:       wall.Sub(p.start).Milliseconds(),
		CyclesPerSec: rate,
		Final:        final,
		Ops:          delta.ops(),
	}
	p.lastWall, p.last = wall, cur
	// Snap the next boundary to the period grid. Re-anchoring at the
	// fired step (now + every) let every idle skip drift all later
	// boundaries; the doc promises a sample at the first event step at or
	// after each ProgressEvery multiple.
	p.nextAt = (now/p.every + 1) * p.every
	p.cb(sample)
}

// loopState carries one run's cross-segment bookkeeping: the sampling and
// audit state live here so a multi-kernel stream shares one progress
// timeline and one violation harvest across segments, and the cycle clock
// (now) only moves forward — the DRAM channel keeps absolute-time state,
// so a later kernel must never rewind the clock the hierarchy has seen.
type loopState struct {
	prog    *progressState
	auditor *audit.Auditor
	// Partition-audit scratch (nil when auditing is off): base[i] is SM
	// i's cumulative CTAsLaunched recorded immediately before the latest
	// bind, so per-segment launch deltas can be conserved against the
	// dispatcher hand-outs; parts is reused every audit step.
	parts []audit.Partition
	base  []int64

	now       int64
	maxCycles int64
}

func (g *GPU) startRun() *loopState {
	st := &loopState{maxCycles: g.Cfg.MaxCycles}
	if st.maxCycles == 0 {
		st.maxCycles = 200_000_000
	}
	st.maxCycles = min(st.maxCycles, math.MaxInt32-1) // see Config.MaxCycles
	if g.Cfg.Progress != nil {
		st.prog = newProgressState(g.Cfg.Progress, g.Cfg.ProgressEvery)
	}
	if g.Cfg.Audit {
		st.auditor = audit.NewWithOptions(audit.Options{
			Interval:            g.Cfg.AuditInterval,
			ContinueOnViolation: g.Cfg.AuditCollect,
		})
		st.auditor.Hier = g.Hier
		st.parts = make([]audit.Partition, len(g.disps))
		st.base = make([]int64, len(g.SMs))
	}
	return st
}

// bind points each partition's dispatcher at its kernel and binds the
// partition's SMs at the current cycle, in ascending SM index order — the
// same order the event loop Ticks in, so CTA IDs land deterministically.
// ks[p] is partition p's kernel.
func (g *GPU) bind(ks []*kernels.Kernel, st *loopState) {
	if st.base != nil {
		// Launch baseline must precede BindKernel: FillSlots consumes
		// dispatcher IDs and bumps CTAsLaunched during the bind itself.
		for i, s := range g.SMs {
			st.base[i] = s.Cnt.CTAsLaunched
		}
	}
	for p, k := range ks {
		g.disps[p].next, g.disps[p].total = 0, k.GridCTAs
	}
	for p, k := range ks {
		lo, hi := g.spans[p][0], g.spans[p][1]
		info := sm.NewProgInfo(k, g.Cfg.SM) // decoded once, shared by the partition's SMs
		for _, s := range g.SMs[lo:hi] {
			s.BindKernel(info, st.now)
		}
	}
}

// remaining sums the undispatched CTAs across every partition.
func (g *GPU) remaining() int {
	n := 0
	for _, d := range g.disps {
		n += d.Remaining()
	}
	return n
}

// auditPartitions refreshes the partition descriptors from the live
// dispatchers and runs the partition accounting invariants.
func (g *GPU) auditPartitions(st *loopState, now int64) error {
	for p, d := range g.disps {
		lo, hi := g.spans[p][0], g.spans[p][1]
		st.parts[p] = audit.Partition{
			Index:      p,
			SMs:        g.SMs[lo:hi],
			Base:       st.base[lo:hi],
			Dispatched: d.next,
			Total:      d.total,
		}
	}
	return st.auditor.StepPartitions(st.parts, now)
}

// auditFinal runs the end-of-run audit: partition accounting against the
// drained dispatchers, the per-SM leak sweep, and — in collect mode — the
// whole run's violation harvest.
func (g *GPU) auditFinal(st *loopState) error {
	if st.auditor == nil {
		return nil
	}
	if err := g.auditPartitions(st, st.now); err != nil {
		return err
	}
	return st.auditor.Final(g.SMs, st.now)
}

// finalSample delivers a sampled run's Final sample at run end.
func (g *GPU) finalSample(st *loopState) {
	if st.prog != nil {
		g.sampleProgress(st.prog, st.now, true)
	}
}

// Run executes kernel k to completion and returns its metrics. It drives
// the whole machine as one partition; partitioned machines run through
// RunConcurrent, multi-kernel streams through RunStream.
func (g *GPU) Run(k *kernels.Kernel) (*stats.Metrics, error) {
	if len(g.disps) != 1 {
		return nil, fmt.Errorf("gpu: Run drives an unpartitioned machine (this one has %d partitions); use RunConcurrent", len(g.disps))
	}
	st := g.startRun()
	g.bind([]*kernels.Kernel{k}, st)
	if g.sink != nil {
		g.sink.Event(trace.Event{Kind: trace.RunStart, Kernel: k.Name()})
	}
	if err := g.runLoop(st); err != nil {
		return nil, err
	}
	if err := g.auditFinal(st); err != nil {
		return nil, err
	}
	if g.sink != nil {
		g.sink.Event(trace.Event{Kind: trace.RunEnd, Cycle: st.now})
	}
	g.finalSample(st)
	return g.collect(k.Name(), g.SMs, tally{}, st.now, true), nil
}

// runLoop advances the machine from st.now until every resident CTA has
// retired and every dispatcher has drained, leaving the end cycle in
// st.now. One invocation is one segment: Run uses a single segment,
// RunStream one per stream kernel (continuing the clock), RunConcurrent
// one for all partitions together.
//
// The loop is event-driven per SM: each SM's last-returned wake
// time is cached, and a global step only re-Ticks the SMs whose cache
// is due. A skipped SM is provably inert — it reported no awake warps
// and no event at or before now, and nothing outside its own Tick
// mutates it — so re-Ticking it (as the dense loop did) could only
// drain zero events and return the same wake time. The step sequence,
// and therefore every cycle count, is identical to the dense loop's.
//
// Occupancy integrals likewise no longer cost a per-step sweep over
// all SMs: each SM integrates its own counters at state transitions
// (sm.statSample) and the totals are flushed once at run end.
func (g *GPU) runLoop(st *loopState) error {
	now := st.now
	wake := make([]int64, len(g.SMs))
	for i := range wake {
		wake[i] = now // every SM ticks at the segment's first step
	}
	residentSMs := 0
	hasRes := make([]bool, len(g.SMs))
	for i, s := range g.SMs {
		if s.HasResidents() {
			hasRes[i] = true
			residentSMs++
		}
	}

	for {
		if g.stop.Load() {
			return fmt.Errorf("%w at cycle %d", ErrInterrupted, now)
		}
		next := farFuture
		for i, s := range g.SMs {
			if wake[i] <= now {
				wake[i], _ = s.Tick(now)
				if r := s.HasResidents(); r != hasRes[i] {
					hasRes[i] = r
					if r {
						residentSMs++
					} else {
						residentSMs--
					}
				}
			}
			if wake[i] < next {
				next = wake[i]
			}
		}
		if st.auditor != nil {
			if err := st.auditor.Step(g.SMs, now); err != nil {
				return err
			}
			if err := g.auditPartitions(st, now); err != nil {
				return err
			}
		}
		if residentSMs == 0 && g.remaining() == 0 {
			break
		}
		// Sampling rides the wake schedule: the check costs one compare
		// when progress is off, and a due sample fires at the event step
		// already being executed — never by inserting one. The final
		// iteration is covered by the run-end Final sample, so a periodic
		// sample never duplicates it.
		if st.prog != nil && now >= st.prog.nextAt {
			g.sampleProgress(st.prog, now, false)
		}
		if next == farFuture {
			return fmt.Errorf("%w: %d CTAs unfinished at cycle %d\n%s", ErrDeadlock, g.residentCount(), now, g.debugResidents())
		}
		if next <= now {
			next = now + 1
		}
		now = next
		if now > st.maxCycles {
			return fmt.Errorf("%w: %d cycles", ErrCycleBudget, now)
		}
	}
	st.now = now
	return nil
}

// debugResidents dumps stuck CTA/warp state for deadlock reports.
func (g *GPU) debugResidents() string {
	out := ""
	for _, s := range g.SMs {
		for _, c := range s.Residents() {
			out += fmt.Sprintf("SM%d CTA%d state=%d %s\n", s.ID, c.ID, c.State, c.DebugWarps())
		}
	}
	return out
}

func (g *GPU) residentCount() int {
	n := 0
	for _, s := range g.SMs {
		n += len(s.Residents())
	}
	return n
}

// RegWindowFracs concatenates the Figure 5 instrumentation windows of all
// SMs (only populated when SM.TrackRegUsage is set).
func (g *GPU) RegWindowFracs() []float64 {
	var out []float64
	for _, s := range g.SMs {
		out = append(out, s.Cnt.RegWindowFracs...)
	}
	return out
}

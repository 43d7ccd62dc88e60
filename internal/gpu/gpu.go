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
	"unsafe"

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

// GPU is one simulated machine instance, built per run. Its SMs and L2
// tags outlive it: Release hands them to the next New.
type GPU struct {
	Cfg  Config
	Hier *mem.Hierarchy
	SMs  []*sm.SM
	disp dispatcher
	sink trace.Sink
	stop atomic.Bool
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
	hier := mem.NewHierarchy(cfg.L2Bytes, cfg.L2Ways, cfg.DRAMLatency, cfg.DRAMBytesPerCycle, cfg.Lat)
	g := &GPU{Cfg: cfg, Hier: hier}
	for i := 0; i < cfg.NumSMs; i++ {
		g.SMs = append(g.SMs, sm.New(i, cfg.SM, hier, &g.disp, pf(cfg.SM, hier)))
	}
	return g
}

// Release hands the machine's SMs — their warp contexts, CTA records, L1s
// and scheduler state — and its L2 tags to later runs. Call it once
// everything needed of the run has been read (the metrics, RegWindowFracs);
// the machine must not be used again. The GPU itself is not recycled, so a
// Stop that arrives late reaches only this dead machine.
func (g *GPU) Release() {
	for _, s := range g.SMs {
		s.Release()
	}
	g.SMs = nil
	g.Hier.L2.Release()
	g.Hier.L2 = nil
}

// MachineBytes is the memory a machine of cfg holds: the arrays New sizes
// up front — the L2's tags and, per SM, the L1's tags, the event queue, the
// wake ring and the scheduler state — plus NumSMs × MaxWarps warp
// contexts, the residency ceiling. It allocates nothing; admission
// (runner.Job.Validate) bounds it, since an SM a run released keeps what
// that run grew. cfg's fields must be within admission's own guards (they
// keep the sum far from overflow).
func MachineBytes(cfg Config) int64 {
	const (
		tagBytes   = 8  // per mem.LineBytes line
		eventBytes = 32 // sm's event: key, sequence, warp, CTA
		ringBytes  = 32 * 8
		// A scheduler's list and mask headers, tombstone count, greedy
		// pointer, rotor and sequence counter.
		schedulerBytes = 2*24 + 4*8
	)
	warpBytes := int64(unsafe.Sizeof(sm.Warp{})) + 8 // and its scheduler-list entry
	smc := &cfg.SM
	perSM := int64(smc.L1Bytes)/mem.LineBytes*tagBytes +
		int64(smc.MaxWarps)*(eventBytes+warpBytes) +
		int64(smc.NumSchedulers)*(ringBytes+schedulerBytes)
	return int64(cfg.L2Bytes)/mem.LineBytes*tagBytes + int64(cfg.NumSMs)*perSM
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
	cur := g.tally(now)
	delta := cur.since(p.last)
	rate := 0.0
	if dt := wall.Sub(p.lastWall).Seconds(); dt > 0 {
		rate = float64(delta.n[opCycles]) / dt
	}
	sample := trace.ProgressSample{
		Cycle:        now,
		CycleDelta:   delta.n[opCycles],
		GridCTAs:     int64(g.disp.total),
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

// Run executes kernel k to completion and returns its metrics. A GPU runs
// one kernel: every SM binds k once, at cycle 0.
func (g *GPU) Run(k *kernels.Kernel) (*stats.Metrics, error) {
	var prog *progressState
	if g.Cfg.Progress != nil {
		prog = newProgressState(g.Cfg.Progress, g.Cfg.ProgressEvery)
	}
	var aud *audit.Auditor
	if g.Cfg.Audit {
		aud = audit.NewWithOptions(audit.Options{
			Interval:            g.Cfg.AuditInterval,
			ContinueOnViolation: g.Cfg.AuditCollect,
		})
		aud.Hier = g.Hier
	}
	// The dispatcher, then the SMs in ascending index order — the order the
	// event loop Ticks in, so CTA IDs land deterministically.
	g.disp = dispatcher{total: k.GridCTAs}
	for _, s := range g.SMs {
		s.BindKernel(k) // the program table's decoded issue table, shared
	}
	if g.sink != nil {
		g.sink.Event(trace.Event{Kind: trace.RunStart, Kernel: k.Name()})
	}
	end, err := g.runLoop(prog, aud)
	if err != nil {
		return nil, err
	}
	if aud != nil {
		// The end-of-run audit: grid accounting against the drained
		// dispatcher, the per-SM leak sweep, and — in collect mode — the
		// whole run's violation harvest.
		if err := g.auditGrid(aud, end); err != nil {
			return nil, err
		}
		if err := aud.Final(g.SMs, end); err != nil {
			return nil, err
		}
	}
	if g.sink != nil {
		g.sink.Event(trace.Event{Kind: trace.RunEnd, Cycle: end})
	}
	if prog != nil {
		g.sampleProgress(prog, end, true)
	}
	return g.collect(k.Name(), end), nil
}

// auditGrid runs the grid accounting invariants against the live
// dispatcher.
func (g *GPU) auditGrid(a *audit.Auditor, now int64) error {
	return a.StepGrid(audit.Grid{SMs: g.SMs, Dispatched: g.disp.next, Total: g.disp.total}, now)
}

// runLoop advances the machine from cycle 0 until every resident CTA has
// retired and the dispatcher has drained, and returns the end cycle.
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
func (g *GPU) runLoop(prog *progressState, aud *audit.Auditor) (int64, error) {
	maxCycles := g.Cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	maxCycles = min(maxCycles, math.MaxInt32-1) // see Config.MaxCycles
	var now int64
	wake := make([]int64, len(g.SMs)) // every SM ticks at cycle 0
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
			return 0, fmt.Errorf("%w at cycle %d", ErrInterrupted, now)
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
		if aud != nil {
			if err := aud.Step(g.SMs, now); err != nil {
				return 0, err
			}
			if err := g.auditGrid(aud, now); err != nil {
				return 0, err
			}
		}
		if residentSMs == 0 && g.disp.Remaining() == 0 {
			return now, nil
		}
		// Sampling rides the wake schedule: the check costs one compare
		// when progress is off, and a due sample fires at the event step
		// already being executed — never by inserting one. The final
		// iteration is covered by the run-end Final sample, so a periodic
		// sample never duplicates it.
		if prog != nil && now >= prog.nextAt {
			g.sampleProgress(prog, now, false)
		}
		if next == farFuture {
			return 0, fmt.Errorf("%w: %d CTAs unfinished at cycle %d\n%s", ErrDeadlock, g.residentCount(), now, g.debugResidents())
		}
		if next <= now {
			next = now + 1
		}
		now = next
		if now > maxCycles {
			return 0, fmt.Errorf("%w: %d cycles", ErrCycleBudget, now)
		}
	}
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

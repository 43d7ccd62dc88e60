package sm

import (
	"math/bits"
	"sync"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/trace"
)

// Policy is the register-file management scheme plugged into an SM. One
// policy instance is attached per SM and owns that SM's register-file
// accounting (how much of the RF active and pending CTAs consume, and what
// a CTA switch costs).
//
// The SM invokes the hooks; policies drive residency through the SM
// primitives LaunchNew, Deactivate and Reactivate.
type Policy interface {
	// Name identifies the configuration in results.
	Name() string
	// KernelStart resets per-kernel state; called after the SM is bound to
	// a kernel and before the first FillSlots.
	KernelStart(s *SM, now int64)
	// FillSlots should activate (launch or resume) as many CTAs as the
	// policy's register resources allow. Called at kernel start and after
	// every CTA completion.
	FillSlots(s *SM, now int64)
	// OnCTAStalled fires when every warp of an active CTA is long-blocked
	// — the CTA-switch trigger.
	OnCTAStalled(s *SM, c *CTA, now int64)
	// OnCTAReady fires when a pending CTA's earliest warp dependency has
	// resolved, making it a resume candidate.
	OnCTAReady(s *SM, c *CTA, now int64)
	// OnCTAFinished fires when a CTA's last warp exits, after the SM has
	// released its scheduling slots and shared memory.
	OnCTAFinished(s *SM, c *CTA, now int64)
	// BlockedOnRegisters reports whether the policy currently has
	// schedulable work blocked only by register-resource depletion
	// (Figure 14b accounting).
	BlockedOnRegisters() bool
}

// IssueGate is an optional Policy extension: a policy that implements it is
// consulted before every instruction issues (RegMutex's shared-register-pool
// acquisition). Policies that never deny issue simply omit the method.
type IssueGate interface {
	// AllowIssue returns false to block the warp this cycle.
	AllowIssue(s *SM, w *Warp, now int64) bool
}

// Dispatcher feeds grid CTAs to SMs.
type Dispatcher interface {
	// NextCTAID returns the next unlaunched CTA index, or -1 when the grid
	// is exhausted.
	NextCTAID() int
	// Remaining returns how many CTAs are still unlaunched.
	Remaining() int
}

// Counters aggregates the SM's raw event counts.
type Counters struct {
	Instructions   int64
	CTAsLaunched   int64
	CTASwitches    int64
	CTAStallEvents int64
	RFReads        int64
	RFWrites       int64
	// DepletionCycles counts cycles in which register-resource depletion
	// (SRP for RegMutex, PCRF for FineReg) held back schedulable work —
	// the Figure 14(b) metric. Policies maintain it.
	DepletionCycles int64
	PCRFReads       int64
	PCRFWrites      int64
	SharedAccesses  int64

	// Policy events with no other ledger: FineReg's ACRF-direct launches
	// and PCRF chain spills/fills (the registers moved are PCRFWrites/
	// PCRFReads), Reg+DRAM's context DMAs out to and back from DRAM (the
	// bytes moved are the DRAM channel's TrafficContext class).
	ACRFLaunches  int64
	PCRFSpills    int64
	PCRFFills     int64
	DMASpills     int64
	DMAPrefetches int64

	// Table III: sum and count of first-issue→first-full-stall latencies.
	StallLatencySum float64
	StallLatencyN   int64

	// Figure 5: per-window touched-register fractions.
	RegWindowFracs []float64
}

// SM is one streaming multiprocessor.
type SM struct {
	ID   int
	Cfg  Config
	Pol  Policy
	gate IssueGate // Pol when it implements IssueGate, else nil
	Hier *mem.Hierarchy
	L1   *mem.Cache
	Disp Dispatcher

	meta *ProgInfo
	// The bound kernel's launch geometry (BindKernel).
	warpsPerCTA, sharedMem int
	regCost                int // warp-registers per CTA

	// Residency.
	residents []*CTA
	// schedWarps is each scheduler's wiring list in wiring-sequence order. A
	// warp's position in it (Warp.schedPos) is fixed for as long as a Tick
	// runs: unwiring leaves a nil tombstone behind (holes counts them per
	// list), and a list whose tombstones outnumber its warps is compacted at
	// the top of the next Tick (compactDue).
	schedWarps [][]*Warp
	holes      []int
	compactDue bool
	// readyMask is the issue-candidate partition of schedWarps: bit p of
	// scheduler sid is set exactly when schedWarps[sid][p] is awake
	// (non-exited, active CTA, wakeAt <= now), so ascending bit order is
	// wiring order. Maintained in lockstep with the awake counter;
	// pick/pickLRR scan only this. Sized from the list, never fixed at one
	// word.
	readyMask [][]uint64
	scanMask  []uint64 // reusable pick-scan snapshot (see pick)
	greedy    []*Warp
	// rotor is the per-scheduler LRR rotation anchor: the schedSeq of the
	// last-issued warp. Unlike the greedy pointer it survives the warp
	// leaving the scheduler (CTA switch or exit compaction), so a rotation
	// resumes after the departed warp's position instead of resetting to
	// slot 0 and re-serving the low-index warps.
	rotor   []int64
	seqNext []int64 // per-scheduler wiring sequence counter

	// warpFree holds retired warp contexts that LaunchNew re-arms instead of
	// allocating. A context retires into warpRetired and moves to warpFree
	// only at the top of the next Tick: the call chain that retired it (Tick
	// → issue → exitWarp → finishCTA → FillSlots → LaunchNew) still holds it,
	// and Tick reads its exited flag and wiring sequence after issue returns.
	// Both outlive the run: reset retires every context into warpFree.
	warpFree, warpRetired []*Warp
	// ctas holds the first keptCTAs CTA records this SM has built and
	// ctaNext how many of them the current run has handed out. A run takes
	// records in order and never gives one back, so no record is reused
	// within a run — a policy's ScheduleEvent can outlive its CTA, and a
	// recycled record would turn that stale event into a spurious
	// OnCTAReady — while the next run, whose event queue and policy start
	// empty, takes them all again.
	ctas    []*CTA
	ctaNext int

	activeCTAs  int
	awake       int // active, non-exited warps with wakeAt <= now
	warpsUsed   int
	threadsUsed int
	shmemUsed   int
	pendingCTAs int

	// wakeRing holds the wake-ups due within wakeHorizon cycles: slot
	// at%wakeHorizon has, per scheduler, one ready-mask-shaped word set with
	// bit p standing for the warp at wiring position p, laid out
	// [slot][scheduler][1<<ringShift] (ringWords; the word count grows with
	// the longest scheduler list); bit k of ringSlots is set when slot k may
	// hold a bit. Everything later, and every CTA-ready check, is in events.
	// wakeSpan is wakeHorizon and wakeMul is 1 outside the tests that reroute
	// or reorder wake-ups (audit.go).
	wakeRing  []uint64
	ringShift uint
	ringSlots uint32
	wakeSpan  int64
	wakeMul   uint64
	events    eventQueue
	eventSeq  uint64

	stamp       int64
	schedAssign int

	// Occupancy integrals (Σ value·dt), maintained incrementally at state
	// transitions instead of sampled every global step by the run loop.
	// int64 is exact: peak values (threads ≤ 2048) times the cycle budget
	// (≤ 2e8) stay far below 2^53, so these match the old per-step float
	// accumulation bit for bit.
	statLastT   int64
	residentInt int64
	activeInt   int64
	threadsInt  int64

	// instrumentation
	Cnt          Counters
	windowIssued int
	lineBuf      []uint64

	// sink receives cycle-level trace events; nil (the default) disables
	// tracing at the cost of one untaken branch per emission site.
	sink trace.Sink
}

// SetTrace attaches an event sink (nil disables tracing). Attach before
// BindKernel so lifecycle events are complete.
func (s *SM) SetTrace(t trace.Sink) { s.sink = t }

// Trace returns the attached sink (nil when tracing is off); policies use
// it to emit register-transfer events.
func (s *SM) Trace() trace.Sink { return s.sink }

// New builds an SM bound to the shared memory hierarchy and dispatcher. It
// rebuilds an SM that a finished run released when there is one.
func New(id int, cfg Config, hier *mem.Hierarchy, disp Dispatcher, pol Policy) *SM {
	s, _ := released.Get().(*SM)
	if s == nil {
		s = new(SM)
	}
	s.reset(id, cfg, hier, disp, pol)
	return s
}

// released holds the SMs handed back by Release.
var released sync.Pool

// Release hands the SM, with its warp contexts, CTA records and L1, to a
// later New. The caller must not use the SM, or any CTA or warp it handed
// out, again.
func (s *SM) Release() { released.Put(s) }

// reset makes s the SM New(id, cfg, …) returns. It is the one constructor:
// a fresh SM literal into which only backing arrays carry over, cleared and
// truncated, so whatever the last run left — in any configuration, stopped
// at any cycle — nothing of its state survives.
func (s *SM) reset(id int, cfg Config, hier *mem.Hierarchy, disp Dispatcher, pol Policy) {
	// Every context of the last run retires, the ones still resident when
	// it stopped early included.
	free := append(s.warpFree, s.warpRetired...)
	for _, c := range s.residents {
		for _, w := range c.Warps {
			w.CTA = nil
		}
		free = append(free, c.Warps...)
	}
	if s.L1 != nil {
		s.L1.Release()
	}
	events := reuse(s.events, 0)
	if cap(events) < cfg.MaxWarps {
		// Room for every warp slot waiting on memory at once, in one
		// allocation instead of append's doubling chain.
		events = make(eventQueue, 0, cfg.MaxWarps)
	}
	n := cfg.NumSchedulers
	*s = SM{
		ID:          id,
		Cfg:         cfg,
		Pol:         pol,
		Hier:        hier,
		L1:          mem.MustNewCache(cfg.L1Bytes, cfg.L1Ways),
		Disp:        disp,
		residents:   reuse(s.residents, 0),
		schedWarps:  reuseLists(s.schedWarps, n),
		holes:       reuse(s.holes, n),
		readyMask:   reuseLists(s.readyMask, n),
		scanMask:    reuse(s.scanMask, 0),
		greedy:      reuse(s.greedy, n),
		rotor:       reuse(s.rotor, n),
		seqNext:     reuse(s.seqNext, n),
		warpFree:    free,
		warpRetired: reuse(s.warpRetired, 0),
		ctas:        s.ctas,
		wakeRing:    reuse(s.wakeRing, wakeHorizon*n),
		wakeSpan:    wakeHorizon,
		wakeMul:     1,
		events:      events,
		lineBuf:     reuse(s.lineBuf, 0),
	}
	s.gate, _ = pol.(IssueGate)
}

// reuse returns x cleared and resliced to n elements, allocating only when
// its capacity falls short. For n > 0 the elements past x's old length must
// be zero; they are for every slice sized through reuse, which clears before
// it truncates, and growRing allocates the rings it grows.
func reuse[T any](x []T, n int) []T {
	clear(x)
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}

// reuseLists is reuse for a list of lists: each list keeps its backing
// array, emptied.
func reuseLists[T any](ls [][]T, n int) [][]T {
	for i, l := range ls {
		clear(l)
		ls[i] = l[:0]
	}
	if cap(ls) < n {
		return make([][]T, n)
	}
	return ls[:n]
}

// BindKernel prepares the SM to run kernel k — its program decoded for
// this SM's latencies (Decode, shared read-only with every other SM bound
// to it) and its launch geometry — and lets the policy populate its
// initial CTAs. An SM binds one kernel, once, at cycle 0, fresh from New.
func (s *SM) BindKernel(k *kernels.Kernel) {
	s.meta = Decode(k, s.Cfg)
	s.warpsPerCTA, s.sharedMem = k.Profile.WarpsPerCTA, k.Profile.SharedMem
	s.regCost = k.Profile.WarpsPerCTA * k.Profile.Regs
	s.Pol.KernelStart(s, 0)
	s.Pol.FillSlots(s, 0)
}

// Meta exposes the bound program's derived tables to policies.
func (s *SM) Meta() *ProgInfo { return s.meta }

// RegCostPerCTA returns the bound kernel's full static allocation in
// warp-registers per CTA.
func (s *SM) RegCostPerCTA() int { return s.regCost }

// WarpsPerCTA returns the bound kernel's warps per CTA.
func (s *SM) WarpsPerCTA() int { return s.warpsPerCTA }

// SharedMemPerCTA returns the bound kernel's shared-memory bytes per CTA.
func (s *SM) SharedMemPerCTA() int { return s.sharedMem }

// RegsPerThread returns the per-thread register allocation.
func (p *ProgInfo) RegsPerThread() int { return p.prog.RegsPerThread }

// Len returns the number of instructions in the bound program.
func (p *ProgInfo) Len() int { return len(p.rows) }

// LiveCount returns the live-register count at pc.
func (p *ProgInfo) LiveCount(pc int) int { return p.live.LiveCount(pc) }

// HighPressure returns the warp's register demand above the first brs
// registers at pc: live registers with index >= brs (values that must
// physically occupy shared-pool entries right now, e.g. in-flight load
// destinations) plus the destination the instruction at pc is about to
// define. This is what RegMutex's SRP must hold for the warp.
func (p *ProgInfo) HighPressure(pc, brs int) int {
	live := p.live.At(pc)
	// Registers >= brs are exactly the bits that survive shifting the
	// vector right by brs (allocation-free, unlike materializing Regs()).
	n := bits.OnesCount64(uint64(live) >> uint(brs))
	if dst := p.rows[pc].dst; dst.Valid() && int(dst) >= brs && !live.Has(dst) {
		n++
	}
	return n
}

// LiveRegsOf sums the current live warp-register demand of a CTA.
func (p *ProgInfo) LiveRegsOf(c *CTA) int {
	total := 0
	for _, w := range c.Warps {
		total += w.LiveAt(p.live)
	}
	return total
}

// StallPCs appends to buf[:0] the distinct PCs at which the CTA's warps are
// parked — the bit-vector cache probe set for an eviction — and returns it;
// the caller owns buf, so an eviction allocates nothing.
func (p *ProgInfo) StallPCs(c *CTA, buf []int) []int {
	// A CTA has at most a handful of warps, so linear dedup beats a map.
	pcs := buf[:0]
	for _, w := range c.Warps {
		if w.exited {
			continue
		}
		dup := false
		for _, pc := range pcs {
			if pc == w.PC {
				dup = true
				break
			}
		}
		if !dup {
			pcs = append(pcs, w.PC)
		}
	}
	return pcs
}

// ---- Residency accounting ----

// ActiveCTAs returns the number of CTAs currently executing.
func (s *SM) ActiveCTAs() int { return s.activeCTAs }

// PendingCTAs returns the number of parked resident CTAs.
func (s *SM) PendingCTAs() int { return s.pendingCTAs }

// ResidentCTAs returns active + pending.
func (s *SM) ResidentCTAs() int { return s.activeCTAs + s.pendingCTAs }

// HasResidents reports whether any CTA is resident (O(1); the run loop
// polls this after every skipped-SM round).
func (s *SM) HasResidents() bool { return len(s.residents) > 0 }

// Residents returns the resident CTA list, in ascending grid-ID order: the
// dispatcher hands IDs out ascending, LaunchNew appends and finishCTA removes
// in place. The slice must not be mutated.
func (s *SM) Residents() []*CTA { return s.residents }

// ReadyPending returns the oldest resident parked in state st whose
// dependencies have resolved (ReadyAt <= now), or nil. Oldest is lowest grid
// ID, which in resident order is the first match.
func (s *SM) ReadyPending(st CTAState, now int64) *CTA {
	for _, c := range s.residents {
		if c.State == st && c.ReadyAt <= now {
			return c
		}
	}
	return nil
}

// StalledActive returns the oldest fully stalled active CTA — a switch
// victim — or nil.
func (s *SM) StalledActive() *CTA {
	for _, c := range s.residents {
		if c.FullyStalled() {
			return c
		}
	}
	return nil
}

// RegsHeld sums the residents' full allocations (RegCost): the ground truth
// a Ledger account is audited against when every resident holds its own.
func (s *SM) RegsHeld() int {
	held := 0
	for _, c := range s.residents {
		held += c.RegCost
	}
	return held
}

// statSample closes the occupancy integrals' current piece at cycle now.
// Every mutation of activeCTAs/pendingCTAs/threadsUsed must call this
// first, so the integrals always reflect the value that held on
// [statLastT, now).
func (s *SM) statSample(now int64) {
	dt := now - s.statLastT
	if dt <= 0 {
		return
	}
	s.statLastT = now
	s.residentInt += int64(s.activeCTAs+s.pendingCTAs) * dt
	s.activeInt += int64(s.activeCTAs) * dt
	s.threadsInt += int64(s.threadsUsed) * dt
}

// OccupancyIntegrals flushes the incremental occupancy integrals up to
// cycle end and returns Σresident·dt, Σactive·dt and Σthreads·dt since
// BindKernel. The run loop divides by total cycles to recover the same
// averages the dense per-step sampling produced.
func (s *SM) OccupancyIntegrals(end int64) (resident, active, threads int64) {
	s.statSample(end)
	return s.residentInt, s.activeInt, s.threadsInt
}

// CanActivateOne reports whether scheduling resources (CTA/warp/thread
// slots) and shared memory admit one more active CTA. newResident says
// whether the CTA would also be a new resident (needing shared memory);
// resuming a pending CTA already holds its shared memory.
func (s *SM) CanActivateOne(newResident bool) bool {
	if s.meta == nil {
		return false
	}
	if s.activeCTAs+1 > s.Cfg.MaxCTAs {
		return false
	}
	if s.warpsUsed+s.warpsPerCTA > s.Cfg.MaxWarps {
		return false
	}
	if s.threadsUsed+s.warpsPerCTA*32 > s.Cfg.MaxThreads {
		return false
	}
	if newResident && !s.CanParkResident() {
		return false
	}
	return true
}

// CanParkResident reports whether shared memory admits one more *resident*
// CTA regardless of scheduling slots (a switch that parks one CTA to launch
// another adds a resident, not an active CTA).
func (s *SM) CanParkResident() bool {
	return s.meta != nil &&
		s.shmemUsed+s.sharedMem <= s.Cfg.SharedMemBytes &&
		len(s.residents) < s.Cfg.MaxResidentCTAs
}

// LaunchNew takes the next CTA from the grid and activates it; warps may
// first issue at now+delay. Returns nil when the grid is exhausted or
// scheduling resources are full. The caller (policy) is responsible for
// register-file accounting.
func (s *SM) LaunchNew(now, delay int64) *CTA {
	if !s.CanActivateOne(true) {
		return nil
	}
	id := s.Disp.NextCTAID()
	if id < 0 {
		return nil
	}
	c := s.newCTA(id)
	for _, w := range c.Warps {
		w.wakeAt = now + delay
	}
	s.residents = append(s.residents, c)
	s.shmemUsed += s.sharedMem
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.CTALaunch, SM: s.ID, CTA: c.ID, Cycle: now})
	}
	s.enterActive(c, now, delay)
	s.Cnt.CTAsLaunched++
	return c
}

// newCTA builds the record of grid CTA id, active, with its warp contexts at
// PC 0. The contexts come from the SM's pool of retired ones when it has any;
// the CTA record is one no earlier CTA of this run has had (see SM.ctas) — a
// policy's ScheduleEvent can outlive its CTA, and a recycled record would
// turn that stale event into a spurious OnCTAReady.
func (s *SM) newCTA(id int) *CTA {
	s.stamp++
	var c *CTA
	if s.ctaNext < len(s.ctas) {
		c = s.ctas[s.ctaNext]
	} else if c = new(CTA); len(s.ctas) < keptCTAs {
		s.ctas = append(s.ctas, c)
	}
	s.ctaNext++
	*c = CTA{
		ID:           id,
		State:        CTAActive,
		Warps:        reuse(c.Warps, s.warpsPerCTA),
		RegCost:      s.regCost,
		launchStamp:  s.stamp,
		firstIssueAt: -1,
		firstStallAt: -1,
	}
	for i := range c.Warps {
		uid, age := warpUID(id, i), s.stamp*64+int64(i)
		if last := len(s.warpFree) - 1; last >= 0 {
			w := s.warpFree[last]
			s.warpFree[last] = nil
			s.warpFree = s.warpFree[:last]
			s.meta.rearm(w, c, i, uid, age)
			c.Warps[i] = w
		} else {
			c.Warps[i] = s.meta.newWarp(c, i, uid, age)
		}
	}
	return c
}

// keptCTAs bounds the CTA records an SM keeps for later runs: a run holds
// every record it keeps until it ends, and a grid can be millions of CTAs.
// The Table II reference grids launch about 128 CTAs per SM.
const keptCTAs = 256

// enterActive wires an active CTA's live warps into the schedulers.
func (s *SM) enterActive(c *CTA, now, delay int64) {
	s.statSample(now)
	s.activeCTAs++
	for _, w := range c.Warps {
		if w.exited {
			continue
		}
		s.warpsUsed++
		s.threadsUsed += 32
		sid := s.schedAssign % s.Cfg.NumSchedulers
		s.schedAssign++
		s.seqNext[sid]++
		w.schedSeq = s.seqNext[sid]
		w.schedID = sid
		w.schedPos = len(s.schedWarps[sid])
		s.schedWarps[sid] = append(s.schedWarps[sid], w)
		if w.schedPos>>6 == len(s.readyMask[sid]) {
			s.readyMask[sid] = append(s.readyMask[sid], 0)
			if len(s.readyMask[sid]) > 1<<s.ringShift {
				s.growRing()
			}
		}
		if w.wakeAt < now+delay {
			w.wakeAt = now + delay
		}
		if w.wakeAt > now {
			w.asleep = true
			// A warp parked at its barrier has no wake-up to register: the
			// last arrival releases it.
			if !w.atBarrier {
				s.sleepUntil(w, w.wakeAt, now)
			}
		} else {
			w.asleep = false
			s.awake++
			s.readyAdd(w)
		}
		if s.sink != nil {
			// A warp entering blocked waits out either the switch's
			// register transfer/drain (wake == now+delay) or a memory
			// dependency that outlasts it.
			r := trace.ReasonIdle
			if w.wakeAt > now {
				if w.wakeAt == now+delay {
					r = trace.ReasonTransfer
				} else {
					r = trace.ReasonMemory
				}
			}
			s.sink.Event(trace.Event{Kind: trace.WarpSpawn, SM: s.ID, CTA: c.ID, Warp: w.Idx, Cycle: now, Reason: r})
		}
	}
}

// Deactivate parks an active CTA in the given pending state, releasing its
// scheduling slots. The policy does its own register accounting around
// this call. ReadyAt is set to the earliest warp dependency resolution and
// an OnCTAReady event is scheduled.
func (s *SM) Deactivate(c *CTA, st CTAState, now int64) {
	if c.State != CTAActive {
		return
	}
	s.statSample(now)
	c.State = st
	s.activeCTAs--
	s.pendingCTAs++
	ready := int64(-1)
	for _, w := range c.Warps {
		if w.exited {
			continue
		}
		s.warpsUsed--
		s.threadsUsed -= 32
		w.longBlocked = false
		if !w.asleep {
			w.asleep = true // parked; Reactivate re-arms wake-up
			s.awake--
			s.readyRemove(w)
		}
		s.unwire(w)
		if ready < 0 || w.wakeAt < ready {
			ready = w.wakeAt
		}
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.WarpDrop, SM: s.ID, CTA: c.ID, Warp: w.Idx, Cycle: now})
		}
	}
	c.stalledWarps = 0
	if ready < now {
		ready = now
	}
	c.ReadyAt = ready
	s.ScheduleEvent(ready, c)
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.CTADeactivate, SM: s.ID, CTA: c.ID, Cycle: now, Arg: int32(st)})
	}
}

// Reactivate resumes a pending CTA; its warps may first issue at
// now+delay.
func (s *SM) Reactivate(c *CTA, now, delay int64) {
	if c.State == CTAActive || c.State == CTAFinished {
		return
	}
	c.State = CTAActive
	s.pendingCTAs--
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.CTAReactivate, SM: s.ID, CTA: c.ID, Cycle: now, Arg: int32(delay)})
	}
	s.enterActive(c, now, delay)
	s.Cnt.CTASwitches++
}

// warpUID derives a grid-globally unique warp identity from the CTA's
// grid ID, so a CTA's memory address streams are the same regardless of
// which SM it lands on or which policy schedules it.
func warpUID(ctaID, warpIdx int) uint64 {
	return uint64(ctaID)*64 + uint64(warpIdx) + 1
}

// readyAdd marks w an issue candidate of its scheduler; readyRemove
// withdraws it (a no-op when it is not one). Both are one bit operation on
// the warp's wiring position.
func (s *SM) readyAdd(w *Warp) {
	s.readyMask[w.schedID][w.schedPos>>6] |= 1 << (w.schedPos & 63)
}

func (s *SM) readyRemove(w *Warp) {
	s.readyMask[w.schedID][w.schedPos>>6] &^= 1 << (w.schedPos & 63)
}

// unwire takes a warp that is no longer an issue candidate off its
// scheduler (exit, or its CTA parking). The list entry becomes a tombstone
// rather than being compacted out: this can run under an in-progress pick
// scan (block → full stall → policy eviction), and a scan indexes the list
// by position. The greedy pointer must not outlive the warp's
// schedulability; the LRR rotation position survives through the rotor
// sequence.
func (s *SM) unwire(w *Warp) {
	sid := w.schedID
	s.schedWarps[sid][w.schedPos] = nil
	if s.holes[sid]++; 2*s.holes[sid] > len(s.schedWarps[sid]) {
		s.compactDue = true
	}
	if s.greedy[sid] == w {
		s.greedy[sid] = nil
	}
}

// compact squeezes the tombstones out of every scheduler list they have
// come to outnumber the warps in (so a list is never more than twice its
// live length, and compaction costs O(1) per unwiring), moving each
// surviving warp's ready bit with it. Only Tick calls it, before anything
// else: positions must not move under a pick.
func (s *SM) compact(now int64) {
	s.compactDue = false
	for sid, ws := range s.schedWarps {
		if 2*s.holes[sid] <= len(ws) {
			continue
		}
		s.holes[sid] = 0
		// The wake ring's bits are positions too. They are not moved but
		// re-derived: a sleeping warp's pending wake-up is its wakeAt.
		for slot := range wakeHorizon {
			clear(s.ringWords(slot, sid))
		}
		mask := s.readyMask[sid]
		live := ws[:0]
		for p, w := range ws {
			bit := mask[p>>6] >> (p & 63) & 1
			mask[p>>6] &^= 1 << (p & 63)
			if w == nil {
				continue
			}
			q := len(live)
			w.schedPos = q
			mask[q>>6] |= bit << (q & 63)
			live = append(live, w)
			if w.asleep && uint64(w.wakeAt-now) < uint64(s.wakeSpan) {
				s.ringSet(w, w.wakeAt)
			}
		}
		clear(ws[len(live):])
		s.schedWarps[sid] = live
	}
}

// finishCTA releases a completed CTA's residency and notifies the policy.
func (s *SM) finishCTA(c *CTA, now int64) {
	c.State = CTAFinished
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.CTAFinish, SM: s.ID, CTA: c.ID, Cycle: now})
	}
	s.statSample(now)
	s.activeCTAs--
	s.shmemUsed -= s.sharedMem
	for i, r := range s.residents {
		if r == c {
			s.residents = append(s.residents[:i], s.residents[i+1:]...)
			break
		}
	}
	s.Pol.OnCTAFinished(s, c, now)
	// Retire the warp contexts once the policy has read what it keeps on
	// them. CTA nil marks a context retired.
	for _, w := range c.Warps {
		w.CTA = nil
	}
	s.warpRetired = append(s.warpRetired, c.Warps...)
	s.Pol.FillSlots(s, now)
}

// ---- Events: the wake ring and the queue ----
//
// Tick(now) delivers every due event in the order DESIGN.md §4 specifies:
// by cycle, a cycle's warp wake-ups before its CTA-ready checks, the checks
// in push sequence. Wake-ups of one cycle commute, so the near ones need no
// order at all: they are bits in the wake ring.

// wakeHorizon is the wake ring's reach in cycles: ALU, SFU, shared-memory
// and L1-hit latencies and the switch drain all fall inside it, L2 and DRAM
// round trips fall out of it into the queue.
const wakeHorizon = 32

// sleepUntil registers the wake-up, at cycle at > now, of the wired warp w
// that has just gone to sleep.
func (s *SM) sleepUntil(w *Warp, at, now int64) {
	if at-now < s.wakeSpan {
		s.ringSet(w, at)
		return
	}
	s.eventSeq++
	s.events.push(event{key: at << 1, seq: s.eventSeq * s.wakeMul, warp: w})
}

// ringWords returns scheduler sid's words of ring slot slot.
func (s *SM) ringWords(slot, sid int) []uint64 {
	i := (slot*len(s.schedWarps) + sid) << s.ringShift
	return s.wakeRing[i : i+1<<s.ringShift]
}

// ringSet sets w's bit in the ring slot of cycle at.
func (s *SM) ringSet(w *Warp, at int64) {
	slot := int(at) & (wakeHorizon - 1)
	s.wakeRing[(slot*len(s.schedWarps)+w.schedID)<<s.ringShift+w.schedPos>>6] |= 1 << (w.schedPos & 63)
	s.ringSlots |= 1 << slot
}

// growRing doubles every slot's words per scheduler; enterActive calls it
// when a scheduler list outgrows the ring, as it grows the ready mask.
func (s *SM) growRing() {
	n := 1 << s.ringShift
	ring := make([]uint64, 2*len(s.wakeRing))
	for i := 0; i < len(s.wakeRing); i += n {
		copy(ring[2*i:], s.wakeRing[i:i+n])
	}
	s.wakeRing = ring
	s.ringShift++
}

// wakeSlot wakes the warps whose bit is set in the ring slot of cycle now
// and empties the slot. A bit left behind by a warp that was unwired since
// finds a tombstone; a bit that finds a warp finds a wired one — not exited,
// its CTA active, and if parked at the barrier asleep until the sentinel —
// so only the half of wake's guard that wiring does not vouch for is left.
func (s *SM) wakeSlot(now int64) {
	slot := int(now) & (wakeHorizon - 1)
	s.ringSlots &^= 1 << slot
	// One pass over the slot's words, all schedulers' (this runs every few
	// cycles): word j is word j&(n-1) of scheduler j>>ringShift.
	words := s.wakeRing[slot*len(s.schedWarps)<<s.ringShift:][:len(s.schedWarps)<<s.ringShift]
	for j, word := range words {
		if word == 0 {
			continue
		}
		words[j] = 0
		ws, base := s.schedWarps[j>>s.ringShift], j&(1<<s.ringShift-1)<<6
		for ; word != 0; word &= word - 1 {
			if w := ws[base+bits.TrailingZeros64(word)]; w != nil && w.asleep && w.wakeAt <= now {
				s.wake(w, now)
			}
		}
	}
}

// wake makes the sleeping warp w an issue candidate again.
func (s *SM) wake(w *Warp, now int64) {
	w.asleep = false
	s.awake++
	s.readyAdd(w)
	if w.longBlocked {
		w.longBlocked = false
		w.CTA.stalledWarps--
	}
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.WarpWake, SM: s.ID, CTA: w.CTA.ID, Warp: w.Idx, Cycle: now})
	}
}

// event is a far wake-up (warp) or a CTA-ready check (cta). key is the due
// cycle doubled, plus one for a CTA-ready check, so that a cycle's wake-ups
// sort before its checks; seq breaks ties in push order.
type event struct {
	key  int64
	seq  uint64
	warp *Warp
	cta  *CTA
}

func (e *event) before(o *event) bool {
	return e.key < o.key || e.key == o.key && e.seq < o.seq
}

// eventQueue is a binary min-heap on (key, seq) — a total order, so its pop
// order does not depend on its shape. The sifts move elements into a hole
// instead of swapping, and nothing is boxed into an interface value.
type eventQueue []event

func (h *eventQueue) push(e event) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

func (h *eventQueue) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // release warp/CTA pointers to the collector
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].before(&q[j]) {
			j = r
		}
		if !q[j].before(&e) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = e
	return top
}

// ScheduleEvent lets policies register a future OnCTAReady check. Checks
// due in the same cycle are delivered in the order they were scheduled.
func (s *SM) ScheduleEvent(at int64, c *CTA) {
	s.eventSeq++
	s.events.push(event{key: at<<1 | 1, seq: s.eventSeq, cta: c})
}

// deliver pops the queue's events with key < due, in order.
func (s *SM) deliver(due, now int64) {
	for len(s.events) > 0 && s.events[0].key < due {
		e := s.events.pop()
		if w := e.warp; w != nil {
			// The event may have outlived the sleep it was registered for:
			// the warp's CTA may be parked, or resumed with a later wake time.
			if w.asleep && !w.exited && !w.atBarrier && w.wakeAt <= now && w.CTA.State == CTAActive {
				s.wake(w, now)
			}
		} else if c := e.cta; c.State.IsPending() && c.ReadyAt <= now {
			if s.sink != nil {
				s.sink.Event(trace.Event{Kind: trace.CTAReady, SM: s.ID, CTA: c.ID, Cycle: now})
			}
			s.Pol.OnCTAReady(s, c, now)
		}
	}
}

// drain delivers everything due at cycle now: the CTA-ready checks the last
// cycle's issue phase left behind, then this cycle's wake-ups — ring and
// queue, in either order — then its CTA-ready checks, including the ones
// their delivery schedules for this cycle. Most cycles have nothing in the
// queue, so its head is tested here, not behind a call.
func (s *SM) drain(now int64) {
	wakes, checks := now<<1|1, (now+1)<<1 // the keys this cycle's wake-ups and checks end below
	if len(s.events) > 0 && s.events[0].key < wakes {
		s.deliver(wakes, now)
	}
	if s.ringSlots>>(uint(now)&(wakeHorizon-1))&1 != 0 {
		s.wakeSlot(now)
	}
	if len(s.events) > 0 && s.events[0].key < checks {
		s.deliver(checks, now)
	}
}

// NextEventAt returns the earliest cycle from now on at which a wake-up or a
// CTA-ready check is registered (a very large value when there is none).
// The ring's slots stand for the cycles now … now+wakeHorizon-1.
func (s *SM) NextEventAt(now int64) int64 {
	next := int64(1) << 62
	if len(s.events) > 0 {
		next = s.events[0].key >> 1
	}
	if s.ringSlots != 0 {
		d := bits.TrailingZeros32(bits.RotateLeft32(s.ringSlots, -int(now&(wakeHorizon-1))))
		next = min(next, now+int64(d))
	}
	return next
}

// ---- The cycle ----

// Tick processes cycle `now`: drains due events, lets each scheduler issue
// at most one instruction, and returns the next cycle at which this SM can
// make progress (or a very large value when fully idle). issued reports
// how many instructions issued this cycle. An SM must be ticked at every
// cycle it returns: the wake ring has no other notion of time.
func (s *SM) Tick(now int64) (next int64, issued int) {
	if len(s.warpRetired) > 0 {
		s.warpFree = append(s.warpFree, s.warpRetired...)
		clear(s.warpRetired)
		s.warpRetired = s.warpRetired[:0]
	}
	if s.compactDue {
		s.compact(now)
	}
	s.drain(now)

	if s.awake == 0 {
		return s.NextEventAt(now), 0
	}

	for sid, mask := range s.readyMask {
		// An empty partition means the scheduler's greedy warp is asleep
		// too: issueReady would reject it on its first test.
		if !anySet(mask) {
			continue
		}
		if w := s.pick(sid, now); w != nil {
			s.issue(w, now)
			s.rotor[sid] = w.schedSeq
			if w.exited {
				w = nil // exitWarp cleared the pointer; do not re-point it at a retired warp
			}
			s.greedy[sid] = w
			issued++
		}
	}

	// Any awake warp (issued, issue-ready, or denied by the policy) means
	// the SM must be revisited next cycle — a denied warp's retry is what
	// eventually breaks shared-register-pool allocation deadlock.
	if s.awake > 0 {
		return now + 1, issued
	}
	return s.NextEventAt(now), issued
}

// anySet reports whether any bit of m is set.
func anySet(m []uint64) bool {
	for _, word := range m {
		if word != 0 {
			return true
		}
	}
	return false
}

// pick selects the warp scheduler sid issues from, blocking (and sleeping)
// warps whose dependencies are not ready.
//
// Both schedulers scan the ready mask rather than the full warp list: the
// sleeping majority contributes nothing to a pick, so skipping it is pure
// savings. They scan a copy of the mask (a reusable buffer, no allocation)
// in ascending position — wiring — order. The copy makes the scan safe
// against issueReady's side effects: blocking a warp can evict its
// fully-stalled CTA and activate another, which clears and sets bits
// mid-scan; warps wired mid-scan are not visited, and the per-warp
// staleness guard skips anything the eviction unwired or put to sleep,
// exactly as the dense scan's wakeAt/CTA-state checks did.
func (s *SM) pick(sid int, now int64) *Warp {
	if s.Cfg.Scheduler == SchedLRR {
		return s.pickLRR(sid, now)
	}
	if g := s.greedy[sid]; g != nil && s.issueReady(g, now) {
		return g
	}
	var best *Warp
	s.scanMask = append(s.scanMask[:0], s.readyMask[sid]...)
	for i, word := range s.scanMask {
		for ; word != 0; word &= word - 1 {
			w := s.schedWarps[sid][i<<6+bits.TrailingZeros64(word)]
			if w == nil || w.asleep || w.wakeAt > now {
				continue // went stale mid-scan
			}
			if !s.issueReady(w, now) {
				continue
			}
			if best == nil || w.Age < best.Age {
				best = w
			}
		}
	}
	return best
}

// pickLRR rotates through the scheduler's warp list: the scan starts just
// after the rotation anchor — the wiring sequence of the last-issued warp
// — and wraps, so every ready warp gets a turn before any warp issues
// twice. Starting from slot 0 every cycle would permanently starve
// high-index warps whenever the low-index ones stay ready. The anchor is a
// sequence number rather than a warp pointer so that a mid-rotation CTA
// eviction (which unwires the anchor warp) resumes the rotation after the
// departed warp's position instead of handing slot 0 an extra turn.
func (s *SM) pickLRR(sid int, now int64) *Warp {
	// The list is in wiring-sequence order, so the rotation is two
	// ascending passes over the mask: first the warps wired after the
	// anchor, then — the wrap — the ones wired up to it. Sleeping warps are
	// absent from the mask but their relative order is unchanged, so this
	// visits the same awake warps in the same order as a full-list rotation
	// did.
	rot := s.rotor[sid]
	s.scanMask = append(s.scanMask[:0], s.readyMask[sid]...)
	for _, wrapped := range [2]bool{false, true} {
		for i, word := range s.scanMask {
			for ; word != 0; word &= word - 1 {
				w := s.schedWarps[sid][i<<6+bits.TrailingZeros64(word)]
				if w == nil || w.asleep || w.wakeAt > now {
					continue // went stale mid-scan
				}
				if (w.schedSeq <= rot) == wrapped && s.issueReady(w, now) {
					return w
				}
			}
		}
	}
	return nil
}

// issueReady checks scoreboard readiness; a dependency-blocked warp is put
// to sleep as a side effect.
func (s *SM) issueReady(w *Warp, now int64) bool {
	if w.wakeAt > now || w.exited || w.CTA.State != CTAActive {
		return false
	}
	// Register acquisition happens at decode — before operands are ready —
	// so a warp that then blocks on memory holds its shared-pool grant
	// across the stall (the RegMutex contention the paper measures).
	if s.gate != nil && !s.gate.AllowIssue(s, w, now) {
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.WarpDeny, SM: s.ID, CTA: w.CTA.ID, Warp: w.Idx, Cycle: now})
		}
		return false
	}
	row := &s.meta.rows[w.PC]
	if dep := w.depReadyAt(row.depMask, now); dep > now {
		reason := trace.ReasonScoreboard
		if s.sink != nil {
			reason = w.blockReason(row.in)
		}
		s.block(w, dep, now, reason)
		return false
	}
	return true
}

// block puts a warp to sleep until its dependency resolves and performs
// CTA-stall detection.
func (s *SM) block(w *Warp, until, now int64, reason trace.StallReason) {
	w.wakeAt = until
	if !w.asleep {
		w.asleep = true
		s.awake--
		s.readyRemove(w)
	}
	s.sleepUntil(w, until, now)
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.WarpBlock, SM: s.ID, CTA: w.CTA.ID, Warp: w.Idx, Cycle: now, Reason: reason})
	}
	if until-now >= s.Cfg.LongStall && !w.longBlocked {
		w.longBlocked = true
		c := w.CTA
		c.stalledWarps++
		if c.FullyStalled() {
			s.Cnt.CTAStallEvents++
			if s.sink != nil {
				s.sink.Event(trace.Event{Kind: trace.CTAFullStall, SM: s.ID, CTA: c.ID, Cycle: now})
			}
			if c.firstStallAt < 0 && c.firstIssueAt >= 0 {
				c.firstStallAt = now
				s.Cnt.StallLatencySum += float64(now - c.firstIssueAt)
				s.Cnt.StallLatencyN++
			}
			// Only offer the CTA to the policy when it will actually be
			// absent for a while; evicting a CTA whose first warp wakes
			// shortly just convoys it behind the switch machinery.
			if c.EarliestWake()-now >= s.Cfg.LongStall {
				s.Pol.OnCTAStalled(s, c, now)
			}
		}
	}
}

// issue executes one instruction of warp w at cycle now.
func (s *SM) issue(w *Warp, now int64) {
	c := w.CTA
	row := &s.meta.rows[w.PC]
	dst := row.dst
	s.Cnt.Instructions++
	if c.firstIssueAt < 0 {
		c.firstIssueAt = now
	}
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.WarpIssue, SM: s.ID, CTA: c.ID, Warp: w.Idx, Cycle: now})
		if dst.Valid() {
			// Remember what produces the destination so a later blocked
			// consumer can be attributed (memory vs. scoreboard).
			bit := uint64(1) << dst
			if row.kind == kindGlobal {
				w.memWritten |= bit
			} else {
				w.memWritten &^= bit
			}
		}
	}

	// Register file event accounting (reads per source, one write).
	s.Cnt.RFReads += int64(row.nsrc)
	if dst.Valid() {
		s.Cnt.RFWrites++
	}
	if s.Cfg.TrackRegUsage {
		s.trackUsage(w, row.in)
	}

	switch row.kind {
	case kindShared:
		s.Cnt.SharedAccesses++
		fallthrough
	case kindFixed:
		if dst.Valid() {
			w.setReady(dst, now+row.lat)
		}
		w.PC++
	case kindGlobal:
		w.memCounter++
		stream := w.UID*2654435761 + w.memCounter
		s.lineBuf = mem.Coalesce(row.in.Mem, stream, s.lineBuf)
		res := s.Hier.Access(s.L1, now, s.lineBuf, row.store)
		if dst.Valid() {
			w.setReady(dst, res.ReadyAt)
		}
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.MemAccess, SM: s.ID, Cycle: now, Queue: s.Hier.DRAM.QueueDelay(now)})
		}
		w.PC++
	case kindBarrier:
		// CTA-wide barrier: the warp parks until every non-exited warp of
		// its CTA arrives, then all release in the same cycle.
		w.PC++
		w.atBarrier = true
		c.barWaiting++
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.WarpBarrier, SM: s.ID, CTA: c.ID, Warp: w.Idx, Cycle: now})
		}
		if c.barWaiting+c.finishedWarps >= len(c.Warps) {
			s.releaseBarrier(c, now)
		} else {
			// Park unschedulably (no wake event; the last arrival or a
			// sibling's exit releases the whole CTA).
			if !w.asleep {
				w.asleep = true
				s.awake--
				s.readyRemove(w)
			}
			w.wakeAt = barrierParked
		}
	case kindExit:
		s.exitWarp(w, now)
	case kindBranch:
		w.PC = w.advanceBranch(row)
	}
}

// barrierParked is the wakeAt sentinel of a warp parked at a barrier: far
// enough in the future that the schedulers never consider it, released
// explicitly by releaseBarrier.
const barrierParked = int64(1) << 61

// releaseBarrier wakes every warp of c parked at its barrier (the paper's
// generators emit one barrier per loop iteration; arrivals from adjacent
// iterations are conflated CTA-wide, which is safe because release only
// ever *adds* schedulability).
func (s *SM) releaseBarrier(c *CTA, now int64) {
	for _, bw := range c.Warps {
		if !bw.atBarrier {
			continue
		}
		bw.atBarrier = false
		c.barWaiting--
		if bw.asleep && !bw.exited && bw.wakeAt == barrierParked {
			bw.wakeAt = now
			bw.asleep = false
			s.awake++
			s.readyAdd(bw)
		}
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.WarpBarrierRelease, SM: s.ID, CTA: c.ID, Warp: bw.Idx, Cycle: now})
		}
	}
}

// exitWarp retires a warp, freeing its scheduling slots; the CTA finishes
// when its last warp exits.
func (s *SM) exitWarp(w *Warp, now int64) {
	w.exited = true
	c := w.CTA
	c.finishedWarps++
	s.unwire(w)
	if s.sink != nil {
		s.sink.Event(trace.Event{Kind: trace.WarpExit, SM: s.ID, CTA: c.ID, Warp: w.Idx, Cycle: now})
	}
	// A warp exiting may satisfy a barrier its siblings are parked at.
	if c.barWaiting > 0 && c.barWaiting+c.finishedWarps >= len(c.Warps) {
		s.releaseBarrier(c, now)
	}
	if !w.asleep {
		s.awake--
		s.readyRemove(w)
	}
	s.statSample(now)
	s.warpsUsed--
	s.threadsUsed -= 32
	if c.Finished() {
		s.finishCTA(c, now)
		return
	}
	if c.FullyStalled() {
		// The exit may have completed a full-stall condition.
		s.Cnt.CTAStallEvents++
		if s.sink != nil {
			s.sink.Event(trace.Event{Kind: trace.CTAFullStall, SM: s.ID, CTA: c.ID, Cycle: now})
		}
		if c.EarliestWake()-now >= s.Cfg.LongStall {
			s.Pol.OnCTAStalled(s, c, now)
		}
	}
}

// trackUsage implements the Figure 5 window instrumentation.
func (s *SM) trackUsage(w *Warp, in *isa.Instr) {
	if in.Dst.Valid() {
		w.touched = w.touched.Set(in.Dst)
	}
	in.Reads(func(r isa.Reg) { w.touched = w.touched.Set(r) })
	s.windowIssued++
	if s.windowIssued < 1000 {
		return
	}
	s.windowIssued = 0
	var touched, allocated int
	regsPerWarp := s.meta.prog.RegsPerThread
	for _, c := range s.residents {
		if c.State != CTAActive {
			continue
		}
		for _, cw := range c.Warps {
			touched += cw.touched.Count()
			cw.touched = 0
			allocated += regsPerWarp
		}
	}
	if allocated > 0 {
		s.Cnt.RegWindowFracs = append(s.Cnt.RegWindowFracs, float64(touched)/float64(allocated))
	}
}

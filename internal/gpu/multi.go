// multi.go is the multi-kernel execution surface: in-order streams
// (RunStream) and MPS-style concurrent kernels on a statically
// partitioned machine (RunConcurrent). Both reuse Run's event loop
// unchanged — a stream is several loop segments on one continuing cycle
// clock, a concurrent run is one segment with a private dispatcher per
// partition — so determinism is inherited, not re-proven: the loop Ticks
// SMs in ascending index order, and partition membership only changes
// which dispatcher an SM drains.
package gpu

import (
	"errors"
	"fmt"
	"strings"

	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// MultiResult is the outcome of a multi-kernel run: per-kernel metric
// segments plus the combined rollup.
type MultiResult struct {
	// Segments holds per-kernel metrics in submission order. For RunStream,
	// segment i covers kernel i's cycle range (Cycles is the segment's
	// duration, and L2/DRAM deltas are attributable because segments run
	// serially). For RunConcurrent, segment p is partition p's view over
	// the whole run: SM-local counters (instructions, L1, occupancy over
	// the partition's SMs) only — the L2 and DRAM are shared between
	// concurrently-running partitions, so their traffic appears solely in
	// Total.
	Segments []*stats.Metrics
	// Total is the whole run: cumulative counters over every SM, the full
	// cycle count, and the machine-wide L2/DRAM traffic.
	Total *stats.Metrics
}

// machineSnap freezes the machine's cumulative counters so a later
// collectRange can attribute a segment's deltas.
type machineSnap struct {
	cnt      []sm.Counters
	l1A, l1M []int64
	l2A, l2M int64

	dramDemand, dramContext, dramBitvec int64
}

func (g *GPU) snapshot() *machineSnap {
	snap := &machineSnap{
		cnt:         make([]sm.Counters, len(g.SMs)),
		l1A:         make([]int64, len(g.SMs)),
		l1M:         make([]int64, len(g.SMs)),
		l2A:         g.Hier.L2.Accesses,
		l2M:         g.Hier.L2.Misses,
		dramDemand:  g.Hier.DRAM.Bytes(mem.TrafficDemand),
		dramContext: g.Hier.DRAM.Bytes(mem.TrafficContext),
		dramBitvec:  g.Hier.DRAM.Bytes(mem.TrafficBitvec),
	}
	for i, s := range g.SMs {
		snap.cnt[i] = s.Cnt
		snap.l1A[i] = s.L1.Accesses
		snap.l1M[i] = s.L1.Misses
	}
	return snap
}

// collectRange gathers one segment's metrics: counter deltas against snap
// over the given SM subset, occupancy averages from the integrals the
// latest BindKernel restarted (so start must be that bind's cycle), and —
// when shared is set, i.e. no other kernel ran in [start, end) — the
// machine-wide L2/DRAM deltas.
func (g *GPU) collectRange(name string, sms []*sm.SM, snap *machineSnap, start, end int64, shared bool) *stats.Metrics {
	m := &stats.Metrics{
		Benchmark: name,
		Config:    g.SMs[0].Pol.Name(),
		Cycles:    end - start,
	}
	var stallSum float64
	var stallN int64
	var residentInt, activeInt, threadsInt int64
	for _, s := range sms {
		b := snap.cnt[s.ID]
		r, a, th := s.OccupancyIntegrals(end)
		residentInt += r
		activeInt += a
		threadsInt += th
		m.Instructions += s.Cnt.Instructions - b.Instructions
		m.CTAsLaunched += s.Cnt.CTAsLaunched - b.CTAsLaunched
		m.CTASwitches += s.Cnt.CTASwitches - b.CTASwitches
		m.CTAStalls += s.Cnt.CTAStallEvents - b.CTAStallEvents
		m.RFReads += s.Cnt.RFReads - b.RFReads
		m.RFWrites += s.Cnt.RFWrites - b.RFWrites
		m.PCRFReads += s.Cnt.PCRFReads - b.PCRFReads
		m.PCRFWrites += s.Cnt.PCRFWrites - b.PCRFWrites
		m.SharedAccesses += s.Cnt.SharedAccesses - b.SharedAccesses
		m.RegDepletionStallCycles += s.Cnt.DepletionCycles - b.DepletionCycles
		m.L1Accesses += s.L1.Accesses - snap.l1A[s.ID]
		m.L1Misses += s.L1.Misses - snap.l1M[s.ID]
		stallSum += s.Cnt.StallLatencySum - b.StallLatencySum
		stallN += s.Cnt.StallLatencyN - b.StallLatencyN
	}
	if stallN > 0 {
		m.CyclesToFirstStall = stallSum / float64(stallN)
	}
	if d := end - start; d > 0 {
		denom := float64(d) * float64(len(sms))
		m.AvgResidentCTAs = float64(residentInt) / denom
		m.AvgActiveCTAs = float64(activeInt) / denom
		m.AvgActiveThreads = float64(threadsInt) / denom
	}
	if shared {
		m.L2Accesses = g.Hier.L2.Accesses - snap.l2A
		m.L2Misses = g.Hier.L2.Misses - snap.l2M
		m.DRAMDemandBytes = g.Hier.DRAM.Bytes(mem.TrafficDemand) - snap.dramDemand
		m.DRAMContextBytes = g.Hier.DRAM.Bytes(mem.TrafficContext) - snap.dramContext
		m.DRAMBitvecBytes = g.Hier.DRAM.Bytes(mem.TrafficBitvec) - snap.dramBitvec
	}
	return m
}

func joinNames(ks []*kernels.Kernel, sep string) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name()
	}
	return strings.Join(names, sep)
}

// RunStream executes kernels back-to-back on one machine — an in-order
// stream. The cycle clock continues across kernels (the DRAM channel
// keeps absolute-time state, so rewinding it between kernels would let a
// later kernel see a busy channel as free), each kernel gets a
// per-segment metrics diff, and the rollup's occupancy averages are the
// cycle-weighted combination of the segments — each BindKernel restarts
// the occupancy integrals, so the end-of-run integrals alone would cover
// only the last segment.
func (g *GPU) RunStream(ks ...*kernels.Kernel) (*MultiResult, error) {
	if len(ks) == 0 {
		return nil, errors.New("gpu: empty stream")
	}
	if len(g.disps) != 1 {
		return nil, fmt.Errorf("gpu: RunStream drives an unpartitioned machine (this one has %d partitions)", len(g.disps))
	}
	st := g.startRun()
	res := &MultiResult{Segments: make([]*stats.Metrics, 0, len(ks))}
	var wResident, wActive, wThreads float64
	for _, k := range ks {
		segStart := st.now
		snap := g.snapshot()
		g.bind([]*kernels.Kernel{k}, st)
		if g.sink != nil {
			g.sink.RunStart(k.Name(), len(g.SMs))
		}
		if err := g.runLoop(st); err != nil {
			return nil, err
		}
		if g.sink != nil {
			g.sink.RunEnd(st.now)
		}
		seg := g.collectRange(k.Name(), g.SMs, snap, segStart, st.now, true)
		res.Segments = append(res.Segments, seg)
		w := float64(st.now - segStart)
		wResident += seg.AvgResidentCTAs * w
		wActive += seg.AvgActiveCTAs * w
		wThreads += seg.AvgActiveThreads * w
	}
	if err := g.auditFinal(st); err != nil {
		return nil, err
	}
	g.reconcile(st)
	total := g.collectNamed(joinNames(ks, "+"), st.now)
	if st.now > 0 {
		total.AvgResidentCTAs = wResident / float64(st.now)
		total.AvgActiveCTAs = wActive / float64(st.now)
		total.AvgActiveThreads = wThreads / float64(st.now)
	}
	res.Total = total
	return res, nil
}

// RunConcurrent executes one kernel per partition simultaneously on a
// partitioned machine (Config.Partitions): each partition's private
// dispatcher hands its kernel's CTAs only to that partition's SMs while
// every memory request meets the other tenants in the shared L2 and DRAM
// channel. ks[p] is partition p's kernel. Because partition membership
// only selects a dispatcher, the event core's determinism guarantees
// carry over verbatim: repeat runs are byte-identical, and each
// partition's instruction count equals the same kernel's solo run on a
// machine of the partition's size (instruction streams are
// timing-independent; only cycle counts feel the contention).
func (g *GPU) RunConcurrent(ks ...*kernels.Kernel) (*MultiResult, error) {
	if len(ks) != len(g.disps) {
		return nil, fmt.Errorf("gpu: %d kernels for %d partitions", len(ks), len(g.disps))
	}
	st := g.startRun()
	snap := g.snapshot()
	g.bind(ks, st)
	name := joinNames(ks, "|")
	if g.sink != nil {
		g.sink.RunStart(name, len(g.SMs))
	}
	if err := g.runLoop(st); err != nil {
		return nil, err
	}
	if err := g.auditFinal(st); err != nil {
		return nil, err
	}
	if g.sink != nil {
		g.sink.RunEnd(st.now)
	}
	g.reconcile(st)
	res := &MultiResult{Segments: make([]*stats.Metrics, 0, len(ks))}
	for p, k := range ks {
		lo, hi := g.spans[p][0], g.spans[p][1]
		res.Segments = append(res.Segments, g.collectRange(k.Name(), g.SMs[lo:hi], snap, 0, st.now, false))
	}
	res.Total = g.collectNamed(name, st.now)
	return res, nil
}

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
	"finereg/internal/stats"
	"finereg/internal/trace"
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
		base := g.tally(g.SMs, st.now)
		g.bind([]*kernels.Kernel{k}, st)
		if g.sink != nil {
			g.sink.Event(trace.Event{Kind: trace.RunStart, Kernel: k.Name()})
		}
		if err := g.runLoop(st); err != nil {
			return nil, err
		}
		if g.sink != nil {
			g.sink.Event(trace.Event{Kind: trace.RunEnd, Cycle: st.now})
		}
		seg := g.collect(k.Name(), g.SMs, base, st.now, true)
		res.Segments = append(res.Segments, seg)
		w := float64(seg.Cycles)
		wResident += seg.AvgResidentCTAs * w
		wActive += seg.AvgActiveCTAs * w
		wThreads += seg.AvgActiveThreads * w
	}
	if err := g.auditFinal(st); err != nil {
		return nil, err
	}
	g.finalSample(st)
	total := g.collect(joinNames(ks, "+"), g.SMs, tally{}, st.now, true)
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
	g.bind(ks, st)
	name := joinNames(ks, "|")
	if g.sink != nil {
		g.sink.Event(trace.Event{Kind: trace.RunStart, Kernel: name})
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
	res := &MultiResult{Segments: make([]*stats.Metrics, 0, len(ks))}
	for p, k := range ks {
		lo, hi := g.spans[p][0], g.spans[p][1]
		res.Segments = append(res.Segments, g.collect(k.Name(), g.SMs[lo:hi], tally{}, st.now, false))
	}
	res.Total = g.collect(name, g.SMs, tally{}, st.now, true)
	return res, nil
}

// counters.go is the one place the machine's counters are read. The hot
// path writes plain per-run fields (sm.Counters, the L1/L2 caches' hit
// counts, the DRAM channel's ledger — a GPU and everything under it belong
// to one run, so none of it is shared or synchronized); tally sums them,
// and its three consumers — stats.Metrics at collect time, the
// RunStream/RunConcurrent segment diffs, and ProgressSample.Ops — are all
// differences of two tallies.
package gpu

import (
	"finereg/internal/core"
	"finereg/internal/mem"
	"finereg/internal/sm"
	"finereg/internal/stats"
)

// Tally slots. The first numOps are the progress ops, in the order
// OpNames reports them.
const (
	opCycles = iota
	opInstructions
	opCTALaunches
	opCTASwitches
	opCTARetired
	opCTAFullStalls
	opL2Accesses
	opL2Misses
	opDRAMAccesses
	opDRAMBytes
	opACRFLaunches
	opPCRFSpills
	opPCRFSpillRegs
	opPCRFFills
	opPCRFFillRegs
	opPCRFDepletionEvents
	opDMASpills
	opDMAPrefetches
	opDMABytes
	numOps
)

// The remaining slots only feed stats.Metrics.
const (
	tRFReads = numOps + iota
	tRFWrites
	tSharedAccesses
	tDepletionCycles
	tL1Accesses
	tL1Misses
	tStallLatencyN
	tDRAMDemandBytes
	tDRAMBitvecBytes
	numTally
)

var opNames = [numOps]string{
	opCycles:              "gpu_cycles",
	opInstructions:        "gpu_instructions",
	opCTALaunches:         "sm_cta_launches",
	opCTASwitches:         "sm_cta_switches",
	opCTARetired:          "sm_cta_retired",
	opCTAFullStalls:       "sm_cta_full_stalls",
	opL2Accesses:          "mem_l2_accesses",
	opL2Misses:            "mem_l2_misses",
	opDRAMAccesses:        "mem_dram_accesses",
	opDRAMBytes:           "mem_dram_bytes",
	opACRFLaunches:        "acrf_launches",
	opPCRFSpills:          "pcrf_spills",
	opPCRFSpillRegs:       "pcrf_spill_regs",
	opPCRFFills:           "pcrf_fills",
	opPCRFFillRegs:        "pcrf_fill_regs",
	opPCRFDepletionEvents: "pcrf_depletion_events",
	opDMASpills:           "regdram_dma_spills",
	opDMAPrefetches:       "regdram_dma_prefetches",
	opDMABytes:            "regdram_dma_bytes",
}

// OpNames lists every key a ProgressSample.Ops map can carry, in a fixed
// order (the serving layer exports one counter per name).
func OpNames() []string { return opNames[:] }

// tally is the machine's cumulative counters at one cycle, summed over a
// set of SMs; the L2 and DRAM slots are always machine-wide.
type tally struct {
	n        [numTally]int64
	stallSum float64 // Σ sm.Counters.StallLatencySum (tStallLatencyN counts them)
}

// tally sums the counters of sms at cycle now. It mutates nothing in the
// machine, so reading it mid-run leaves the event sequence unchanged.
func (g *GPU) tally(sms []*sm.SM, now int64) tally {
	var t tally
	n := &t.n
	n[opCycles] = now
	for _, s := range sms {
		c := &s.Cnt
		n[opInstructions] += c.Instructions
		n[opCTALaunches] += c.CTAsLaunched
		n[opCTASwitches] += c.CTASwitches
		n[opCTARetired] += c.CTAsLaunched - int64(len(s.Residents()))
		n[opCTAFullStalls] += c.CTAStallEvents
		n[opACRFLaunches] += c.ACRFLaunches
		n[opPCRFSpills] += c.PCRFSpills
		n[opPCRFSpillRegs] += c.PCRFWrites
		n[opPCRFFills] += c.PCRFFills
		n[opPCRFFillRegs] += c.PCRFReads
		n[opDMASpills] += c.DMASpills
		n[opDMAPrefetches] += c.DMAPrefetches
		n[tRFReads] += c.RFReads
		n[tRFWrites] += c.RFWrites
		n[tSharedAccesses] += c.SharedAccesses
		n[tDepletionCycles] += c.DepletionCycles
		n[tStallLatencyN] += c.StallLatencyN
		t.stallSum += c.StallLatencySum
		n[tL1Accesses] += s.L1.Accesses
		n[tL1Misses] += s.L1.Misses
		if f, ok := s.Pol.(*core.FineReg); ok {
			n[opPCRFDepletionEvents] += f.DepletionEvents
		}
	}
	d := g.Hier.DRAM
	n[opL2Accesses] = g.Hier.L2.Accesses
	n[opL2Misses] = g.Hier.L2.Misses
	n[opDRAMAccesses] = d.Accesses()
	n[opDRAMBytes] = d.TotalBytes()
	n[opDMABytes] = d.Bytes(mem.TrafficContext)
	n[tDRAMDemandBytes] = d.Bytes(mem.TrafficDemand)
	n[tDRAMBitvecBytes] = d.Bytes(mem.TrafficBitvec)
	return t
}

// since returns t − base, slot by slot.
func (t tally) since(base tally) tally {
	for i := range t.n {
		t.n[i] -= base.n[i]
	}
	t.stallSum -= base.stallSum
	return t
}

// ops renders the op slots as the sparse map a ProgressSample carries:
// zero entries are omitted.
func (t tally) ops() map[string]int64 {
	m := map[string]int64{}
	for i, name := range opNames {
		if v := t.n[i]; v != 0 {
			m[name] = v
		}
	}
	return m
}

// collect gathers the metrics of sms over (base, end]: counter deltas
// against base (the zero tally for a whole run), occupancy averages from
// the integrals the latest BindKernel restarted (so base must have been
// taken at that bind's cycle; RunStream overwrites its rollup's averages
// with cycle-weighted segment averages), and — when shared is set, i.e.
// no other kernel ran in the range — the machine-wide L2/DRAM deltas.
func (g *GPU) collect(name string, sms []*sm.SM, base tally, end int64, shared bool) *stats.Metrics {
	d := g.tally(sms, end).since(base)
	n := &d.n
	m := &stats.Metrics{
		Benchmark:               name,
		Config:                  g.SMs[0].Pol.Name(),
		Cycles:                  n[opCycles],
		Instructions:            n[opInstructions],
		CTAsLaunched:            n[opCTALaunches],
		CTASwitches:             n[opCTASwitches],
		CTAStalls:               n[opCTAFullStalls],
		RFReads:                 n[tRFReads],
		RFWrites:                n[tRFWrites],
		PCRFReads:               n[opPCRFFillRegs],
		PCRFWrites:              n[opPCRFSpillRegs],
		SharedAccesses:          n[tSharedAccesses],
		L1Accesses:              n[tL1Accesses],
		L1Misses:                n[tL1Misses],
		RegDepletionStallCycles: n[tDepletionCycles],
	}
	if n[tStallLatencyN] > 0 {
		m.CyclesToFirstStall = d.stallSum / float64(n[tStallLatencyN])
	}
	if m.Cycles > 0 {
		var residentInt, activeInt, threadsInt int64
		for _, s := range sms {
			r, a, th := s.OccupancyIntegrals(end)
			residentInt += r
			activeInt += a
			threadsInt += th
		}
		denom := float64(m.Cycles) * float64(len(sms))
		m.AvgResidentCTAs = float64(residentInt) / denom
		m.AvgActiveCTAs = float64(activeInt) / denom
		m.AvgActiveThreads = float64(threadsInt) / denom
	}
	if shared {
		m.L2Accesses = n[opL2Accesses]
		m.L2Misses = n[opL2Misses]
		m.DRAMDemandBytes = n[tDRAMDemandBytes]
		m.DRAMContextBytes = n[opDMABytes]
		m.DRAMBitvecBytes = n[tDRAMBitvecBytes]
	}
	return m
}

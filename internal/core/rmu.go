package core

import "finereg/internal/mem"

// bitvecCacheEntries is the live-register bit-vector cache size the paper
// empirically settled on (Section V-C: "32 entries are sufficient").
const bitvecCacheEntries = 32

// bitvecBytes is the off-chip footprint of one live-register table entry:
// 4-byte PC tag + 8-byte vector (Section V-F).
const bitvecBytes = 12

// RMU is FineReg's register management unit (Figure 10). This model
// implements the component that has timing consequences — the
// direct-mapped live-register bit-vector cache, whose misses fetch 12-byte
// entries from off-chip memory — and exposes the latency parameters of the
// PCRF access logic. The PCRF pointer table and free-space monitor live
// with the PCRF/policy state.
type RMU struct {
	hier *mem.Hierarchy

	tags  [bitvecCacheEntries]int32 // stored PC, -1 invalid
	valid [bitvecCacheEntries]bool

	// Hits and Misses count bit-vector cache probes.
	Hits, Misses int64
}

// NewRMU builds an RMU attached to the shared memory hierarchy (bit-vector
// fetches travel over the same off-chip channel as demand traffic).
func NewRMU(hier *mem.Hierarchy) *RMU {
	r := &RMU{hier: hier}
	r.Reset()
	return r
}

// Reset invalidates the bit-vector cache.
func (r *RMU) Reset() {
	for i := range r.tags {
		r.tags[i] = -1
		r.valid[i] = false
	}
}

// Lookup probes the bit-vector cache for the live-register vector of the
// instruction at pc and returns the extra cycles the CTA switch must wait
// for it. A hit costs nothing; a miss fetches 12 bytes from off-chip
// memory (accounted as TrafficBitvec) and fills the cache.
func (r *RMU) Lookup(pc int, now int64) (delay int64) {
	idx := pc & (bitvecCacheEntries - 1) // "hashing 5 bits of PC address"
	if r.valid[idx] && r.tags[idx] == int32(pc) {
		r.Hits++
		return 0
	}
	r.Misses++
	done := r.hier.Transfer(now, bitvecBytes, mem.TrafficBitvec)
	r.tags[idx] = int32(pc)
	r.valid[idx] = true
	return done - now
}

// PCRFTagLat is the fixed PCRF tag + register access latency (Section V-E:
// "at least four clock cycles to access a PCRF tag and the corresponding
// register").
const PCRFTagLat = 4

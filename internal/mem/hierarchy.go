package mem

import "finereg/internal/isa"

// Latencies groups the fixed on-chip access latencies (cycles).
type Latencies struct {
	L1Hit int64
	L2Hit int64 // added on top of L1 latency when L1 misses
}

// DefaultLatencies mirrors common GTX 980-class measurements.
func DefaultLatencies() Latencies { return Latencies{L1Hit: 28, L2Hit: 160} }

// Hierarchy is the shared part of the memory system: one L2 and one DRAM
// channel serving all SMs. Per-SM L1 caches are owned by the SMs and passed
// into Access. One run goroutine ticks every SM, so nothing here is
// synchronized.
type Hierarchy struct {
	L2   *Cache
	DRAM *DRAM
	Lat  Latencies
}

// NewHierarchy builds the shared L2 + DRAM.
func NewHierarchy(l2Bytes, l2Ways int, dramLatency int64, dramBytesPerCycle float64, lat Latencies) *Hierarchy {
	return &Hierarchy{
		L2:   MustNewCache(l2Bytes, l2Ways),
		DRAM: &DRAM{LatencyCycles: dramLatency, BytesPerCycle: dramBytesPerCycle},
		Lat:  lat,
	}
}

// AccessResult reports what one warp-level memory operation did.
type AccessResult struct {
	// ReadyAt is the cycle the last transaction's data returns (loads) or
	// now (stores — retired through a store buffer).
	ReadyAt int64
	// L1Miss and L2Miss count missing transactions.
	Transactions, L1Misses, L2Misses int
}

// Access performs one warp memory instruction against l1 (the issuing SM's
// L1) at cycle now, touching the given line addresses. Stores consume
// bandwidth but never block the warp.
func (h *Hierarchy) Access(l1 *Cache, now int64, lines []uint64, isStore bool) AccessResult {
	res := AccessResult{ReadyAt: now, Transactions: len(lines)}
	for _, addr := range lines {
		done := now + h.Lat.L1Hit
		if !l1.Access(addr) {
			res.L1Misses++
			done += h.Lat.L2Hit
			if !h.L2.Access(addr) {
				res.L2Misses++
				done = h.DRAM.Access(done, LineBytes, TrafficDemand)
			}
		}
		if !isStore && done > res.ReadyAt {
			res.ReadyAt = done
		}
	}
	return res
}

// Transfer moves raw bytes to/from DRAM on behalf of a policy (context
// switching, bit-vector fetches) and returns the completion cycle.
func (h *Hierarchy) Transfer(now int64, bytes int, class TrafficClass) int64 {
	if bytes <= 0 {
		return now
	}
	return h.DRAM.Access(now, bytes, class)
}

// TransferOverlapped moves raw bytes to/from DRAM like Transfer but
// models a DMA engine that overlaps the access latency with execution:
// the returned completion accounts for channel occupancy (queue + service)
// only. Used for Zorua-style context paging, whose cost the paper
// attributes to bandwidth rather than serialized latency.
func (h *Hierarchy) TransferOverlapped(now int64, bytes int, class TrafficClass) int64 {
	if bytes <= 0 {
		return now
	}
	return h.DRAM.Access(now, bytes, class) - h.DRAM.LatencyCycles
}

// Coalesce converts one warp-level access descriptor into the 128-byte
// line addresses its 32 lanes touch, deterministically from the access
// stream index. Streams from different regions never alias (the region id
// selects a disjoint address space).
//
//	PatCoalesced  — 1 line, consecutive across the stream
//	PatBroadcast  — 1 line, fixed per region
//	PatStrided    — min(stride, 32) lines spread stride lines apart
//	PatRandom     — Stride hashed lines (default 8): scattered accesses
//	                after intra-warp coalescing merges colliding lanes
//
// streamIdx should be unique per (cta, warp, loop iteration) so a stream
// walks its footprint; the footprint wraps addresses so cache behaviour
// reflects the kernel's working-set size.
func Coalesce(md isa.MemDesc, streamIdx uint64, buf []uint64) []uint64 {
	base := uint64(md.Region) << 40
	foot := uint64(md.Footprint)
	if foot < LineBytes {
		foot = LineBytes
	}
	wrap := func(off uint64) uint64 { return base + off%foot }
	buf = buf[:0]
	switch md.Pattern {
	case isa.PatBroadcast:
		buf = append(buf, wrap(0))
	case isa.PatStrided:
		stride := md.Stride
		if stride < 1 {
			stride = 1
		}
		if stride > 32 {
			stride = 32
		}
		span := uint64(stride) * LineBytes
		start := streamIdx * span
		for i := 0; i < stride; i++ {
			buf = append(buf, wrap(start+uint64(i)*LineBytes))
		}
	case isa.PatRandom:
		n := md.Stride
		if n < 1 || n > 32 {
			n = 8
		}
		for i := 0; i < n; i++ {
			h := hash64(streamIdx*uint64(n) + uint64(i))
			buf = append(buf, wrap((h%(foot/LineBytes))*LineBytes))
		}
	default: // PatCoalesced
		buf = append(buf, wrap(streamIdx*LineBytes))
	}
	return buf
}

// hash64 is SplitMix64, a fast deterministic scrambler.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

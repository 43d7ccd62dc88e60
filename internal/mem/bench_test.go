package mem

import (
	"testing"

	"finereg/internal/isa"
)

// benchLines returns n distinct line addresses scattered over the sets.
func benchLines(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = hash64(uint64(i)) % (1 << 30) / LineBytes * LineBytes
	}
	return out
}

// BenchmarkCacheAccessHit probes a resident set half the size of the
// Table I L1.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := MustNewCache(48<<10, 8)
	hot := benchLines(c.SizeBytes() / LineBytes / 2)
	for _, a := range hot {
		c.Access(a)
	}
	// Probe in a scrambled order: which way hits is then as unpredictable
	// as it is under a simulated kernel.
	order := make([]uint64, 4096)
	for i := range order {
		order[i] = hot[hash64(uint64(i)+1<<32)%uint64(len(hot))]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(order[i%len(order)])
	}
}

// BenchmarkCacheAccessMiss streams eight times the L1's capacity through it.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := MustNewCache(48<<10, 8)
	cold := benchLines(c.SizeBytes() / LineBytes * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cold[i%len(cold)])
	}
}

func benchHierarchy(b *testing.B, md isa.MemDesc) {
	h := NewHierarchy(2<<20, 8, 600, 313, DefaultLatencies())
	l1 := MustNewCache(48<<10, 8)
	var buf []uint64
	var now int64
	lines := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Coalesce(md, uint64(i), buf)
		h.Access(l1, now, buf, i%8 == 7)
		lines += len(buf)
		now += 4
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
}

// BenchmarkHierarchyAccessCoalesced is one warp instruction touching one
// line of a streaming footprint (TR/ST-like).
func BenchmarkHierarchyAccessCoalesced(b *testing.B) {
	benchHierarchy(b, isa.MemDesc{Pattern: isa.PatCoalesced, Footprint: 64 << 20})
}

// BenchmarkHierarchyAccessScattered is one warp instruction touching eight
// hashed lines of a footprint larger than the L2 (BF/KM-like).
func BenchmarkHierarchyAccessScattered(b *testing.B) {
	benchHierarchy(b, isa.MemDesc{Pattern: isa.PatRandom, Region: 1, Footprint: 8 << 20})
}

func BenchmarkCoalesce(b *testing.B) {
	descs := []isa.MemDesc{
		{Pattern: isa.PatCoalesced, Footprint: 64 << 20},
		{Pattern: isa.PatStrided, Stride: 4, Region: 1, Footprint: 8 << 20},
		{Pattern: isa.PatRandom, Region: 2, Footprint: 8 << 20},
		{Pattern: isa.PatBroadcast, Region: 3, Footprint: 1 << 20},
	}
	var buf []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Coalesce(descs[i%len(descs)], uint64(i), buf)
	}
}

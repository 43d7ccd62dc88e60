package mem

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"finereg/internal/isa"
)

func TestCacheGeometry(t *testing.T) {
	c := MustNewCache(48<<10, 8) // Table I L1
	if got := c.SizeBytes(); got != 48<<10 {
		t.Errorf("SizeBytes = %d, want %d", got, 48<<10)
	}
	if _, err := NewCache(48<<10+1, 8); err == nil {
		t.Error("fractional set count should be rejected")
	}
	if _, err := NewCache(0, 8); err == nil {
		t.Error("zero size should be rejected")
	}
	if _, err := NewCache(1<<10, 0); err == nil {
		t.Error("zero ways should be rejected")
	}
}

// TestCheckGeometryMatchesNewCache: admission asks CheckGeometry and a
// worker later calls NewCache, so the two must agree on every shape — same
// verdict, same message — and the messages are the ones clients already see.
func TestCheckGeometryMatchesNewCache(t *testing.T) {
	for _, g := range []struct {
		name        string
		bytes, ways int
		want        string // "" = valid
	}{
		{"Table I L1: 48 sets", 48 << 10, 8, ""},
		{"power-of-two sets", 2 << 20, 16, ""},
		{"one set", 8 * LineBytes, 8, ""},
		{"odd set count", 3 * 5 * LineBytes, 5, ""},
		{"zero size", 0, 8, "mem: invalid cache geometry 0 bytes / 8 ways"},
		{"zero ways", 1 << 10, 0, "mem: invalid cache geometry 1024 bytes / 0 ways"},
		{"negative size", -4096, 4, "mem: invalid cache geometry -4096 bytes / 4 ways"},
		{"one byte over", 48<<10 + 1, 8, "mem: cache of 49153 bytes / 8 ways is not a whole number of 1024-byte sets"},
		{"half a set", 4 * LineBytes, 8, "mem: cache of 512 bytes / 8 ways is not a whole number of 1024-byte sets"},
		{"lines not a multiple of ways", 9 * LineBytes, 8, "mem: cache of 1152 bytes / 8 ways is not a whole number of 1024-byte sets"},
		// ways*LineBytes wraps to 0 here; the rule must not divide by it.
		{"ways overflow the set size", 1 << 20, 1 << 57, "is not a whole number of"},
		// A single 16 MiB set: every probe would scan 131 072 tags.
		{"associativity past the guard", 16 << 20, 131072, "mem: cache of 131072 ways exceeds the 64-way guard"},
		{"associativity at the guard", 64 * LineBytes, MaxWays, ""},
	} {
		check := CheckGeometry(g.bytes, g.ways)
		c, err := NewCache(g.bytes, g.ways)
		if (check == nil) != (err == nil) || (err != nil && check.Error() != err.Error()) {
			t.Errorf("%s: CheckGeometry says %v, NewCache %v", g.name, check, err)
		}
		switch {
		case g.want == "" && check != nil:
			t.Errorf("%s: rejected: %v", g.name, check)
		case g.want == "" && c.SizeBytes() != g.bytes:
			t.Errorf("%s: built %d bytes, want %d", g.name, c.SizeBytes(), g.bytes)
		case g.want != "" && (check == nil || !strings.Contains(check.Error(), g.want)):
			t.Errorf("%s: got %v, want an error containing %q", g.name, check, g.want)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := MustNewCache(1<<12, 4)
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1000 + 64) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x1000 + LineBytes) {
		t.Error("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("counters = %d/%d, want 4 accesses / 2 misses", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets × 2 ways: four distinct lines mapping to set 0 force LRU.
	c := MustNewCache(2*2*LineBytes, 2)
	setStride := uint64(2 * LineBytes) // lines with the same set index
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted by LRU")
	}
}

func TestCacheReset(t *testing.T) {
	c := MustNewCache(1<<12, 4)
	c.Access(0)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("Reset should clear counters")
	}
	if c.Access(0) {
		t.Error("Reset should clear contents")
	}
}

// Property: a working set smaller than capacity never misses after the
// first pass, regardless of ordering within passes.
func TestCacheFitsWorkingSetQuick(t *testing.T) {
	f := func(seed uint16) bool {
		c := MustNewCache(1<<13, 8) // 64 lines
		nLines := 1 + int(seed%32)  // at most half capacity
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < nLines; i++ {
				hit := c.Access(uint64(i) * LineBytes)
				if pass > 0 && !hit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMLatencyAndQueueing(t *testing.T) {
	d := &DRAM{LatencyCycles: 400, BytesPerCycle: 256}
	t1 := d.Access(0, 128, TrafficDemand)
	if t1 != 401 {
		t.Errorf("first access completes at %d, want 401 (latency + 0.5 cycle service, rounded up)", t1)
	}
	// Saturate the channel: 100 back-to-back lines serialize at 0.5
	// cycles each.
	var last int64
	for i := 0; i < 100; i++ {
		last = d.Access(0, 128, TrafficDemand)
	}
	if last < 400+45 {
		t.Errorf("100 queued accesses complete at %d, want >= 445 (bandwidth-bound)", last)
	}
	if got := d.Bytes(TrafficDemand); got != 128*101 {
		t.Errorf("demand bytes = %d, want %d", got, 128*101)
	}
}

func TestDRAMTrafficClasses(t *testing.T) {
	d := &DRAM{LatencyCycles: 1, BytesPerCycle: 64}
	d.Access(0, 100, TrafficDemand)
	d.Access(0, 200, TrafficContext)
	d.Access(0, 12, TrafficBitvec)
	if d.Bytes(TrafficDemand) != 100 || d.Bytes(TrafficContext) != 200 || d.Bytes(TrafficBitvec) != 12 {
		t.Errorf("per-class bytes wrong: %d/%d/%d", d.Bytes(TrafficDemand), d.Bytes(TrafficContext), d.Bytes(TrafficBitvec))
	}
	if d.TotalBytes() != 312 {
		t.Errorf("TotalBytes = %d, want 312", d.TotalBytes())
	}
}

func TestDRAMUtilization(t *testing.T) {
	d := &DRAM{LatencyCycles: 1, BytesPerCycle: 100}
	d.Access(0, 1000, TrafficDemand) // 10 busy cycles
	if u := d.Utilization(100); u < 0.09 || u > 0.11 {
		t.Errorf("Utilization = %v, want ~0.10", u)
	}
	if u := d.Utilization(5); u != 1 {
		t.Errorf("Utilization should clamp to 1, got %v", u)
	}
	if u := d.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %v, want 0", u)
	}
}

func TestCoalesceShapes(t *testing.T) {
	var buf []uint64
	foot := int64(1 << 20)
	cases := []struct {
		md    isa.MemDesc
		nWant int
	}{
		{isa.MemDesc{Pattern: isa.PatCoalesced, Footprint: foot}, 1},
		{isa.MemDesc{Pattern: isa.PatBroadcast, Footprint: foot}, 1},
		{isa.MemDesc{Pattern: isa.PatStrided, Stride: 8, Footprint: foot}, 8},
		{isa.MemDesc{Pattern: isa.PatStrided, Stride: 64, Footprint: foot}, 32},
		{isa.MemDesc{Pattern: isa.PatRandom, Footprint: foot}, 8},
	}
	for _, c := range cases {
		got := Coalesce(c.md, 7, buf)
		if len(got) != c.nWant {
			t.Errorf("%v: %d transactions, want %d", c.md.Pattern, len(got), c.nWant)
		}
	}
}

func TestCoalesceRegionsDisjoint(t *testing.T) {
	a := Coalesce(isa.MemDesc{Pattern: isa.PatCoalesced, Region: 0, Footprint: 1 << 20}, 5, nil)
	b := Coalesce(isa.MemDesc{Pattern: isa.PatCoalesced, Region: 1, Footprint: 1 << 20}, 5, nil)
	if a[0] == b[0] {
		t.Error("different regions must not alias")
	}
}

func TestCoalesceFootprintWraps(t *testing.T) {
	md := isa.MemDesc{Pattern: isa.PatCoalesced, Footprint: 4 * LineBytes}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		for _, l := range Coalesce(md, i, nil) {
			seen[l] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("footprint of 4 lines produced %d distinct lines", len(seen))
	}
}

// Property: Coalesce is deterministic and respects the footprint bound.
func TestCoalesceBoundedQuick(t *testing.T) {
	f := func(pat, region uint8, stride int16, stream uint32, footKB uint8) bool {
		md := isa.MemDesc{
			Pattern:   isa.Pattern(pat % 4),
			Stride:    int(stride),
			Region:    region % 16,
			Footprint: int64(1+footKB%64) << 10,
		}
		a := Coalesce(md, uint64(stream), nil)
		b := Coalesce(md, uint64(stream), nil)
		if len(a) != len(b) || len(a) == 0 || len(a) > 32 {
			return false
		}
		base := uint64(md.Region) << 40
		foot := uint64(md.Footprint)
		if foot < LineBytes {
			foot = LineBytes
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if a[i] < base || a[i] >= base+foot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyAccessLatencies(t *testing.T) {
	h := NewHierarchy(2<<20, 8, 400, 313, DefaultLatencies())
	l1 := MustNewCache(48<<10, 8)
	lines := []uint64{0}

	// Cold: miss everywhere -> DRAM latency dominates.
	r := h.Access(l1, 0, lines, false)
	if r.L1Misses != 1 || r.L2Misses != 1 {
		t.Fatalf("cold access misses = %d/%d, want 1/1", r.L1Misses, r.L2Misses)
	}
	if r.ReadyAt < 400 {
		t.Errorf("cold load ready at %d, want >= DRAM latency 400", r.ReadyAt)
	}

	// Warm L1: hit latency.
	r = h.Access(l1, 1000, lines, false)
	if r.L1Misses != 0 || r.ReadyAt != 1000+h.Lat.L1Hit {
		t.Errorf("L1 hit ready at %d, want %d", r.ReadyAt, 1000+h.Lat.L1Hit)
	}

	// L2 hit: evictions aside, a fresh L1 but warm L2.
	l1b := MustNewCache(48<<10, 8)
	r = h.Access(l1b, 2000, lines, false)
	if r.L1Misses != 1 || r.L2Misses != 0 {
		t.Fatalf("expected L1 miss + L2 hit, got %d/%d", r.L1Misses, r.L2Misses)
	}
	if want := 2000 + h.Lat.L1Hit + h.Lat.L2Hit; r.ReadyAt != want {
		t.Errorf("L2 hit ready at %d, want %d", r.ReadyAt, want)
	}
}

func TestHierarchyStoresDontBlock(t *testing.T) {
	h := NewHierarchy(2<<20, 8, 400, 313, DefaultLatencies())
	l1 := MustNewCache(48<<10, 8)
	r := h.Access(l1, 123, []uint64{1 << 20}, true)
	if r.ReadyAt != 123 {
		t.Errorf("store ReadyAt = %d, want issue cycle 123", r.ReadyAt)
	}
	if h.DRAM.Bytes(TrafficDemand) != LineBytes {
		t.Errorf("store should have generated one line of demand traffic")
	}
}

func TestHierarchyTransfer(t *testing.T) {
	h := NewHierarchy(2<<20, 8, 400, 256, DefaultLatencies())
	done := h.Transfer(0, 4096, TrafficContext)
	if done < 400+16 {
		t.Errorf("4KB transfer completes at %d, want >= 416", done)
	}
	if h.Transfer(5, 0, TrafficContext) != 5 {
		t.Error("zero-byte transfer should be free")
	}
	if h.DRAM.Bytes(TrafficContext) != 4096 {
		t.Errorf("context bytes = %d, want 4096", h.DRAM.Bytes(TrafficContext))
	}
}

// TestDRAMSubCycleRounding is the regression test for the truncation bug:
// completion cycles must round up (a transfer occupying any fraction of a
// cycle is not done until that cycle ends), while the channel backlog
// keeps exact fractional time so back-to-back accounting stays precise.
func TestDRAMSubCycleRounding(t *testing.T) {
	d := &DRAM{LatencyCycles: 0, BytesPerCycle: 313}
	// 128 B at 313 B/cycle = 0.409 cycles of service: truncation returned
	// 100 — completing before any channel time elapsed.
	if got := d.Access(100, 128, TrafficDemand); got != 101 {
		t.Errorf("first sub-cycle access completes at %d, want 101", got)
	}
	// Backlog is fractional: the second transfer ends at 100.818, still
	// within cycle 101 — the rounding must not double-charge.
	if got := d.Access(100, 128, TrafficDemand); got != 101 {
		t.Errorf("second sub-cycle access completes at %d, want 101", got)
	}
	// The third crosses into cycle 102 (ends at 101.227).
	if got := d.Access(100, 128, TrafficDemand); got != 102 {
		t.Errorf("third sub-cycle access completes at %d, want 102", got)
	}

	// Exact whole-cycle service must not be rounded further.
	d2 := &DRAM{LatencyCycles: 0, BytesPerCycle: 313}
	if got := d2.Access(100, 313, TrafficDemand); got != 101 {
		t.Errorf("whole-cycle access completes at %d, want 101", got)
	}
}

// refLRU is the reference the recency-ordered sets of Cache must agree
// with: a stamp per way, and one loop per access that matches tags and
// tracks the running strict-minimum stamp together, the first minimum
// being the victim.
type refLRU struct {
	ways, sets   int
	tags         []uint64
	used         []int64
	stamp        int64
	hits, misses int64
}

func (c *refLRU) access(addr uint64) bool {
	c.stamp++
	line := addr/LineBytes + 1
	base := int(addr/LineBytes%uint64(c.sets)) * c.ways
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.used[i] = c.stamp
			c.hits++
			return true
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	c.misses++
	c.tags[victim] = line
	c.used[victim] = c.stamp
	return false
}

// TestCacheMatchesReferenceLRU drives Cache.Access and the stamp-scan
// reference with the same seeded address streams and compares every return
// value, the counters, and every set: its tags must be the reference's
// valid tags ordered by stamp, newest first, followed by empty ways.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	geoms := []struct{ bytes, ways int }{
		{48 << 10, 8},          // Table I L1: 48 sets, not a power of two
		{128 << 10, 8},         // power-of-two sets
		{3 * 5 * LineBytes, 5}, // odd everything
		{4 * LineBytes, 4},     // a single set
	}
	for _, g := range geoms {
		lines := uint64(g.bytes / LineBytes)
		streams := map[string]func(r *rand.Rand) uint64{
			// Half the capacity: after warm-up nearly every probe hits.
			"hit-heavy": func(r *rand.Rand) uint64 { return r.Uint64() % (lines/2 + 1) * LineBytes },
			// Sixteen times the capacity: nearly every probe evicts.
			"miss-heavy": func(r *rand.Rand) uint64 { return r.Uint64() % (lines * 16) * LineBytes },
			// Around capacity with byte offsets and a second region.
			"mixed": func(r *rand.Rand) uint64 {
				return uint64(r.Intn(2))<<40 + r.Uint64()%(lines*LineBytes*2)
			},
			// A tenth of the capacity: many sets stay partly empty.
			"sparse": func(r *rand.Rand) uint64 { return r.Uint64() % (lines/10 + 1) * LineBytes },
		}
		for name, next := range streams {
			r := rand.New(rand.NewSource(int64(g.bytes + g.ways)))
			c := MustNewCache(g.bytes, g.ways)
			ref := &refLRU{ways: g.ways, sets: g.bytes / (g.ways * LineBytes),
				tags: make([]uint64, lines), used: make([]int64, lines)}
			for i := 0; i < 20000; i++ {
				addr := next(r)
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("%d/%d %s: access %d (%#x) hit=%v, reference %v", g.bytes, g.ways, name, i, addr, got, want)
				}
			}
			if c.Hits != ref.hits || c.Misses != ref.misses || c.Accesses != ref.hits+ref.misses {
				t.Errorf("%d/%d %s: counters %d/%d/%d, reference %d hits %d misses",
					g.bytes, g.ways, name, c.Accesses, c.Hits, c.Misses, ref.hits, ref.misses)
			}
			for base := 0; base < len(ref.tags); base += g.ways {
				var valid []int
				for j := base; j < base+g.ways; j++ {
					if ref.tags[j] != 0 {
						valid = append(valid, j)
					}
				}
				slices.SortFunc(valid, func(a, b int) int { return cmp.Compare(ref.used[b], ref.used[a]) })
				want := make([]uint64, g.ways)
				for i, j := range valid {
					want[i] = ref.tags[j]
				}
				if got := c.tags[base : base+g.ways]; !slices.Equal(got, want) {
					t.Fatalf("%d/%d %s: set %d holds %#x, reference recency order %#x", g.bytes, g.ways, name, base/g.ways, got, want)
				}
			}
		}
	}
}

// TestNewCacheBytesPerLine: a cache keeps one 8-byte tag per line and
// nothing else that grows with its size.
func TestNewCacheBytesPerLine(t *testing.T) {
	const lines = (48 << 10) / LineBytes
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MustNewCache(48<<10, 8)
		}
	})
	if got, limit := r.AllocedBytesPerOp(), int64(8*lines+256); got > limit {
		t.Errorf("NewCache(48 KiB, 8 ways) allocates %d bytes, want <= %d (8 per line for %d lines, plus the header)", got, limit, lines)
	}
}

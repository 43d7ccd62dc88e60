// Package mem models the GPU memory hierarchy of the Table I machine: a
// per-SM L1 cache, a shared L2, and an off-chip DRAM channel with a fixed
// access latency plus a bandwidth queue, together with the warp-level
// coalescer that turns access descriptors into 128-byte transactions.
package mem

import "fmt"

// LineBytes is the cache line / memory transaction size.
const LineBytes = 128

// Cache is a set-associative, LRU, write-allocate cache. It models tags
// and recency only; data never moves (the timing simulator does not need
// values).
type Cache struct {
	ways      int
	sets      uint64
	lineShift uint
	// tags holds sets × ways line tags, each set most recently used first;
	// tag 0 is an empty way (addresses are offset to avoid 0). A fill goes
	// in at the front, so empty ways sit at the tail of their set and fill
	// before any valid line is evicted.
	tags []uint64

	// Accesses, Hits, and Misses count probe results. Hits is maintained
	// on the hit return path, independently of the other two, so
	// Hits + Misses == Accesses is a real conservation invariant (a skipped
	// increment on either path breaks it) rather than a tautology.
	Accesses, Hits, Misses int64
}

// MaxWays bounds associativity: every access scans its set, so a
// single-set cache of millions of ways would pin the host on each probe.
// No configuration in the tree uses more than 8.
const MaxWays = 64

// CheckGeometry is the rule a cache's shape must satisfy: at most MaxWays
// ways, and sizeBytes a positive multiple of ways*LineBytes (set counts
// need not be powers of two — the Table I L1 is 48 KB / 8-way / 128 B = 48
// sets). NewCache enforces it; admission (runner.Job.Validate) asks it
// without building anything.
func CheckGeometry(sizeBytes, ways int) error {
	if sizeBytes <= 0 || ways <= 0 {
		return fmt.Errorf("mem: invalid cache geometry %d bytes / %d ways", sizeBytes, ways)
	}
	// sizeBytes/ways first: ways*LineBytes can overflow on hostile input.
	if sizeBytes%ways != 0 || (sizeBytes/ways)%LineBytes != 0 {
		return fmt.Errorf("mem: cache of %d bytes / %d ways is not a whole number of %d-byte sets", sizeBytes, ways, ways*LineBytes)
	}
	if ways > MaxWays {
		return fmt.Errorf("mem: cache of %d ways exceeds the %d-way guard", ways, MaxWays)
	}
	return nil
}

// NewCache builds a cache of sizeBytes capacity with the given
// associativity and LineBytes lines; the geometry must pass CheckGeometry.
func NewCache(sizeBytes, ways int) (*Cache, error) {
	if err := CheckGeometry(sizeBytes, ways); err != nil {
		return nil, err
	}
	sets := sizeBytes / (ways * LineBytes)
	c := &Cache{
		ways:      ways,
		sets:      uint64(sets),
		lineShift: 7, // log2(LineBytes)
		tags:      make([]uint64, sets*ways),
	}
	return c, nil
}

// MustNewCache is NewCache that panics on error (static configurations).
func MustNewCache(sizeBytes, ways int) *Cache {
	c, err := NewCache(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Access probes the cache with a byte address, fills on miss, and reports
// whether it hit. A hit moves the line to the front of its set; a miss
// shifts the set down one way, dropping the least recently used line off
// the end, and fills at the front.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	line := addr >> c.lineShift
	base := int(line%c.sets) * c.ways
	line++ // so tag 0 stays "invalid"
	// One pass shifts every way before the match down one place, so the
	// line lands at the front whether it was found at i (a hit) or not at
	// all (a miss, which shifts the whole set and drops its last way).
	set := c.tags[base : base+c.ways : base+c.ways]
	prev := line
	for i, tag := range set {
		set[i] = prev
		if tag == line {
			c.Hits++
			return true
		}
		prev = tag
	}
	c.Misses++
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.Accesses, c.Hits, c.Misses = 0, 0, 0
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return len(c.tags) * LineBytes }

// ResidentLines counts the valid lines. Lines only become valid through a
// miss fill, so ResidentLines <= Misses (and <= capacity) at all times —
// the residency invariant internal/audit checks.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// InjectAuditSkew corrupts one of the cache's probe counters by delta.
// Tests only: it exists so mutation tests can prove the auditor detects
// cache-accounting drift. Unknown counter names panic.
func (c *Cache) InjectAuditSkew(counter string, delta int64) {
	switch counter {
	case "hits":
		c.Hits += delta
	case "misses":
		c.Misses += delta
	case "accesses":
		c.Accesses += delta
	default:
		panic(fmt.Sprintf("mem: InjectAuditSkew: unknown counter %q", counter))
	}
}

package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is the content-addressed result store: an in-memory map always,
// and an optional on-disk JSON layer when a directory is configured. Keys
// embed the simulator fingerprint (see Job.Key), and the disk layout nests
// entries under a fingerprint directory —
//
//	<dir>/<fingerprint>/<key[:2]>/<key>.json
//
// — so a fingerprint bump both changes every key and strands the old
// entries in a directory the cache prunes on first use. Corrupt or
// mismatched disk entries are treated as misses (the job just re-runs) and
// counted, never fatal.
//
// All methods are safe for concurrent use.
type Cache struct {
	// Fingerprint versions every key; defaults to SimFingerprint.
	// Override only in tests simulating a simulator change.
	Fingerprint string

	dir string // "" = memory only

	mu  sync.RWMutex
	mem map[string]*Result

	prune sync.Once

	memHits, diskHits, misses, corrupt atomic.Int64
}

// NewCache returns a cache backed by dir; dir == "" keeps results in
// memory only (they dedup within the process but not across invocations).
func NewCache(dir string) *Cache {
	return &Cache{Fingerprint: SimFingerprint, dir: dir, mem: map[string]*Result{}}
}

// KeyFingerprint is the fingerprint job keys are derived under: the
// cache's own when it sets one, SimFingerprint otherwise — including for a
// nil cache, so Engine.Run and a server's admission key a job the same way
// whether or not a cache is mounted.
func (c *Cache) KeyFingerprint() string {
	if c != nil && c.Fingerprint != "" {
		return c.Fingerprint
	}
	return SimFingerprint
}

// CacheStats is a point-in-time snapshot of the hit/miss counters, with
// hits split by the tier that served them (mem or disk).
type CacheStats struct {
	MemHits, DiskHits, Misses, Corrupt int64
}

// Hits is the total over both sources.
func (s CacheStats) Hits() int64 { return s.MemHits + s.DiskHits }

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		MemHits:  c.memHits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Corrupt:  c.corrupt.Load(),
	}
}

// Get looks key up in memory, then on disk. A disk hit is pulled into
// memory, so repeated lookups stay there. The returned Result is the
// caller's own copy. source is "mem" or "disk" on a hit. A nil cache
// misses.
func (c *Cache) Get(key string) (r *Result, source string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	c.mu.RLock()
	res := c.mem[key]
	c.mu.RUnlock()
	if res != nil {
		c.memHits.Add(1)
		return res.Clone(), "mem", true
	}
	if res := c.diskGet(key); res != nil {
		c.mu.Lock()
		c.mem[key] = res
		c.mu.Unlock()
		c.diskHits.Add(1)
		return res.Clone(), "disk", true
	}
	c.misses.Add(1)
	return nil, "", false
}

// Put stores a pristine copy of r under key in memory, and on disk when
// configured. A disk failure is non-fatal: the entry simply will not
// persist across invocations. A nil cache drops the write.
func (c *Cache) Put(key string, r *Result) {
	if c == nil {
		return
	}
	pristine := r.Clone()
	c.mu.Lock()
	c.mem[key] = pristine
	c.mu.Unlock()
	c.diskPut(key, pristine)
}

// entry is the on-disk record. Key and Fingerprint are stored redundantly
// so a moved or hand-edited file self-identifies as stale.
type entry struct {
	Key         string  `json:"key"`
	Fingerprint string  `json:"fingerprint"`
	Result      *Result `json:"result"`
}

// path maps a key to its entry file, fanning out on the first key byte to
// keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, c.Fingerprint, key[:2], key+".json")
}

// diskGet reads and validates one entry; any failure is a miss.
func (c *Cache) diskGet(key string) *Result {
	if c.dir == "" {
		return nil
	}
	c.pruneStale()
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key ||
		e.Fingerprint != c.Fingerprint || e.Result == nil || e.Result.Metrics == nil {
		c.corrupt.Add(1)
		return nil
	}
	return e.Result
}

// diskPut writes one entry atomically (temp file + rename).
func (c *Cache) diskPut(key string, r *Result) {
	if c.dir == "" {
		return
	}
	c.pruneStale()
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(entry{Key: key, Fingerprint: c.Fingerprint, Result: r}, "", "\t")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
	}
}

// pruneStale removes sibling fingerprint directories once per process:
// entries written by an older (or newer) simulator version can never hit
// again, so they are reclaimed rather than accumulated.
func (c *Cache) pruneStale() {
	c.prune.Do(func() {
		ents, err := os.ReadDir(c.dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			if e.IsDir() && e.Name() != c.Fingerprint {
				os.RemoveAll(filepath.Join(c.dir, e.Name()))
			}
		}
	})
}

// String summarizes the counters for log lines.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d mem hits, %d disk hits, %d misses, %d corrupt",
		s.MemHits, s.DiskHits, s.Misses, s.Corrupt)
}

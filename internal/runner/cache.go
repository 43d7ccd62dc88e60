package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// RemoteTier is an optional third cache level behind memory and disk: a
// shared, typically networked result store keyed by the same
// content-addressed job keys (internal/fleet layers it over HTTP against
// a coordinator node). Implementations must be safe for concurrent use
// and must treat every failure as a miss or a dropped write — the remote
// tier is an accelerator, never a correctness dependency.
type RemoteTier interface {
	// Get fetches the result for key, or ok == false on a miss (or any
	// transport failure).
	Get(key string) (r *Result, ok bool)
	// Put stores r under key, best effort. The callee must not retain or
	// mutate r after returning.
	Put(key string, r *Result)
}

// Cache is the content-addressed result store: an in-memory map always,
// an optional on-disk JSON layer when a directory is configured, and an
// optional remote tier behind both (Get fills mem and disk on a remote
// hit; Put writes through). Keys embed the simulator fingerprint (see
// Job.Key), and the disk layout nests entries under a fingerprint
// directory —
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

	// Remote is the shared third tier (nil = none). Set before first use.
	Remote RemoteTier

	dir string // "" = memory only

	mu  sync.RWMutex
	mem map[string]*Result

	prune sync.Once

	memHits, diskHits, remoteHits, misses, corrupt atomic.Int64
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
// hits split by the tier that served them (mem, disk, or remote).
type CacheStats struct {
	MemHits, DiskHits, RemoteHits, Misses, Corrupt int64
}

// Hits is the total over all sources.
func (s CacheStats) Hits() int64 { return s.MemHits + s.DiskHits + s.RemoteHits }

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		MemHits:    c.memHits.Load(),
		DiskHits:   c.diskHits.Load(),
		RemoteHits: c.remoteHits.Load(),
		Misses:     c.misses.Load(),
		Corrupt:    c.corrupt.Load(),
	}
}

// Get looks key up in memory, then on disk, then in the remote tier. A
// hit from an outer tier is pulled into the inner ones (a remote hit
// lands in memory and on disk), so repeated lookups stay local. The
// returned Result is the caller's own copy. source is "mem", "disk", or
// "remote" on a hit. A nil cache misses.
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
	if c.Remote != nil {
		if res, ok := c.Remote.Get(key); ok && res != nil && res.Metrics != nil {
			pristine := res.Clone()
			c.mu.Lock()
			c.mem[key] = pristine
			c.mu.Unlock()
			c.diskPut(key, pristine)
			c.remoteHits.Add(1)
			return res, "remote", true
		}
	}
	c.misses.Add(1)
	return nil, "", false
}

// Put stores a pristine copy of r under key in memory, on disk when
// configured, and (write-through) in the remote tier when configured.
// Disk and remote failures are non-fatal: the entry simply will not
// persist across invocations or be visible to other nodes. A nil cache
// drops the write.
func (c *Cache) Put(key string, r *Result) {
	if c == nil {
		return
	}
	pristine := r.Clone()
	c.mu.Lock()
	c.mem[key] = pristine
	c.mu.Unlock()
	c.diskPut(key, pristine)
	if c.Remote != nil {
		c.Remote.Put(key, pristine.Clone())
	}
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
	return fmt.Sprintf("%d mem hits, %d disk hits, %d remote hits, %d misses, %d corrupt",
		s.MemHits, s.DiskHits, s.RemoteHits, s.Misses, s.Corrupt)
}

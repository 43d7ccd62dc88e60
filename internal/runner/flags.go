package runner

import (
	"flag"
	"time"
)

// Flags is the one declaration of the engine's command-line surface; every
// binary that owns an engine or a result cache registers it instead of
// spelling the flags out again.
type Flags struct {
	// WorkersFlag names the worker-count flag; "" means "jobs".
	// finereg-serve, whose pool has always been -workers, sets it before
	// Register.
	WorkersFlag string

	Jobs       int
	CacheDir   string
	NoCache    bool
	JobTimeout time.Duration
}

// Register declares -jobs, -job-timeout and the cache flags on fs.
func (f *Flags) Register(fs *flag.FlagSet, defaultCacheDir string) {
	name := f.WorkersFlag
	if name == "" {
		name = "jobs"
	}
	fs.IntVar(&f.Jobs, name, 0, "parallel simulation workers (0 = GOMAXPROCS)")
	fs.DurationVar(&f.JobTimeout, "job-timeout", 0, "per-simulation wall-clock budget (0 = none)")
	f.RegisterCache(fs, defaultCacheDir)
}

// RegisterCache declares only -cache-dir and -no-cache: the half a fleet
// coordinator needs, which has a result cache but runs nothing itself.
func (f *Flags) RegisterCache(fs *flag.FlagSet, defaultCacheDir string) {
	fs.StringVar(&f.CacheDir, "cache-dir", defaultCacheDir, "on-disk result cache directory ('' = memory only)")
	fs.BoolVar(&f.NoCache, "no-cache", false, "keep results in memory only (no disk reads or writes)")
}

// Dir is the effective cache directory: "" under -no-cache.
func (f *Flags) Dir() string {
	if f.NoCache {
		return ""
	}
	return f.CacheDir
}

// Cache builds the result cache the flags describe.
func (f *Flags) Cache() *Cache { return NewCache(f.Dir()) }

// CacheLabel names the cache for a start-up line.
func (f *Flags) CacheLabel() string {
	if f.Dir() == "" {
		return "memory-only"
	}
	return f.Dir()
}

// Engine builds an engine over a fresh Cache; the caller sets Events and
// ProgressEvery.
func (f *Flags) Engine() *Engine {
	return &Engine{Jobs: f.Jobs, Cache: f.Cache(), Timeout: f.JobTimeout}
}

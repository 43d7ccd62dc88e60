package runner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

// tinyJob returns a small but real simulation job (2-SM machine, shrunken
// grid) so engine tests exercise the actual simulator.
func tinyJob(t testing.TB, bench string, pol PolicySpec) *Job {
	t.Helper()
	p, err := kernels.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return &Job{
		Cfg:     gpu.Default().Scale(2),
		Profile: p,
		Grid:    int(float64(p.GridCTAs)*0.1 + 0.5),
		Policy:  pol,
	}
}

func TestJobKeyStableAndSensitive(t *testing.T) {
	j := tinyJob(t, "CS", Baseline())
	k1 := j.Key(SimFingerprint)
	k2 := j.Key(SimFingerprint)
	if k1 != k2 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", k1)
	}
	// A literal key held across commits: removing or adding a key-excluded
	// gpu.Config field must not orphan cached results.
	const v5Key = "49052ee84a53fabc655e7b8c76add453fa0ec7fb59461880e9b7497eef01aa57"
	if got := j.Key("finereg-sim-v5"); got != v5Key {
		t.Errorf("key under finereg-sim-v5 = %s, want %s", got, v5Key)
	}

	// Every key-bearing field must perturb the key; the label must not.
	perturbed := []*Job{
		tinyJob(t, "LB", Baseline()),
		tinyJob(t, "CS", VirtualThread()),
		tinyJob(t, "CS", RegDRAM(2)),
	}
	g := tinyJob(t, "CS", Baseline())
	g.Grid++
	perturbed = append(perturbed, g)
	c := tinyJob(t, "CS", Baseline())
	c.Cfg.SM.MaxCTAs++
	perturbed = append(perturbed, c)
	s := tinyJob(t, "CS", Baseline())
	s.Stalls = true
	perturbed = append(perturbed, s)
	r := tinyJob(t, "CS", Baseline())
	r.TrackReg = true
	perturbed = append(perturbed, r)
	for i, pj := range perturbed {
		if pj.Key(SimFingerprint) == k1 {
			t.Errorf("perturbation %d did not change the key", i)
		}
	}

	l := tinyJob(t, "CS", Baseline())
	l.Label = "renamed"
	if l.Key(SimFingerprint) != k1 {
		t.Error("label must not participate in the key")
	}
	if j.Key("other-fingerprint") == k1 {
		t.Error("fingerprint must participate in the key")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func() []*Job {
		var jobs []*Job
		for _, b := range []string{"CS", "LB"} {
			for _, pol := range []PolicySpec{Baseline(), VirtualThread(), FineRegDefault()} {
				jobs = append(jobs, tinyJob(t, b, pol))
			}
		}
		return jobs
	}
	serial := (&Engine{Jobs: 1}).Run(mk())
	wide := (&Engine{Jobs: 8}).Run(mk())
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	if err := wide.Err(); err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial.Results)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wide.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("results differ between -jobs 1 and -jobs 8")
	}
}

func TestInflightDedup(t *testing.T) {
	e := &Engine{Jobs: 4}
	jobs := []*Job{
		tinyJob(t, "CS", Baseline()),
		tinyJob(t, "CS", Baseline()),
		tinyJob(t, "CS", Baseline()),
	}
	b := e.Run(jobs)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.Executed+b.Stats.Deduped != 3 || b.Stats.Executed != 1 {
		t.Fatalf("want 1 executed + 2 deduped, got %+v", b.Stats)
	}
	// Each consumer owns an independent clone.
	b.Results[0].Metrics.Config = "mutated"
	if b.Results[1].Metrics.Config == "mutated" {
		t.Error("deduped results share memory")
	}
}

// TestConcurrentCallersCoalesce: the in-flight entry is engine-wide, so two
// concurrent Run calls — and two concurrent Dos — on one key execute once,
// and each caller gets an equal result it alone owns. No cache is mounted:
// only the flight can have answered the second caller. The executor holds
// the leader inside the execution until the other caller is parked on it.
func TestConcurrentCallersCoalesce(t *testing.T) {
	for name, call := range map[string]func(e *Engine, j *Job) (*Result, error){
		"Run": func(e *Engine, j *Job) (*Result, error) {
			b := e.Run([]*Job{j})
			return b.Results[0], b.Errs[0]
		},
		"Do": func(e *Engine, j *Job) (*Result, error) {
			res, _, err := e.Do(j.Key(SimFingerprint), j)
			return res, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var e *Engine
			e = &Engine{Exec: func(ctx context.Context, key string, j *Job) (*Result, error) {
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
					e.fmu.Lock()
					waiting := e.flights[key].waiters
					e.fmu.Unlock()
					if waiting == 1 || time.Now().After(deadline) {
						return Simulate(ctx, key, j)
					}
				}
			}}
			var wg sync.WaitGroup
			res := make([]*Result, 2)
			errs := make([]error, 2)
			for i := range res {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res[i], errs[i] = call(e, tinyJob(t, "CS", Baseline()))
				}()
			}
			wg.Wait()
			if errs[0] != nil || errs[1] != nil {
				t.Fatal(errs)
			}
			if st := e.Stats(); st.Submitted != 2 || st.Executed != 1 || st.Deduped != 1 {
				t.Fatalf("want 1 executed + 1 deduped of 2, got %+v", st)
			}
			a, _ := json.Marshal(res[0])
			b, _ := json.Marshal(res[1])
			if string(a) != string(b) {
				t.Error("coalesced callers got different results")
			}
			res[0].Metrics.Config = "mutated"
			if res[1].Metrics.Config == "mutated" {
				t.Error("coalesced callers share memory")
			}
			if n := len(e.flights); n != 0 || e.InFlight() != 0 {
				t.Errorf("%d flights (%d executing) left after both callers returned", n, e.InFlight())
			}
		})
	}
}

func TestCacheMemAndDiskHits(t *testing.T) {
	dir := t.TempDir()
	e := &Engine{Jobs: 1, Cache: NewCache(dir)}
	j := tinyJob(t, "CS", Baseline())
	if err := e.Run([]*Job{j}).Err(); err != nil {
		t.Fatal(err)
	}
	b2 := e.Run([]*Job{tinyJob(t, "CS", Baseline())})
	if b2.Stats.CacheHits != 1 || b2.Stats.DiskHits != 0 {
		t.Fatalf("second run: want 1 mem hit, got %+v", b2.Stats)
	}

	// A fresh cache over the same directory must hit disk.
	e2 := &Engine{Jobs: 1, Cache: NewCache(dir)}
	b3 := e2.Run([]*Job{tinyJob(t, "CS", Baseline())})
	if b3.Stats.CacheHits != 1 || b3.Stats.DiskHits != 1 {
		t.Fatalf("fresh process: want 1 disk hit, got %+v", b3.Stats)
	}
	// The cached result must round-trip exactly.
	a, _ := json.Marshal(e.Run([]*Job{tinyJob(t, "CS", Baseline())}).Results[0])
	b, _ := json.Marshal(b3.Results[0])
	if string(a) != string(b) {
		t.Error("disk round-trip altered the result")
	}
}

func TestCacheFingerprintInvalidationAndPrune(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCache(dir)
	c1.Fingerprint = "sim-vOLD"
	e1 := &Engine{Jobs: 1, Cache: c1}
	if err := e1.Run([]*Job{tinyJob(t, "CS", Baseline())}).Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sim-vOLD")); err != nil {
		t.Fatalf("old fingerprint dir missing: %v", err)
	}

	// A new fingerprint misses (keys differ) and prunes the stale dir.
	c2 := NewCache(dir)
	c2.Fingerprint = "sim-vNEW"
	e2 := &Engine{Jobs: 1, Cache: c2}
	b := e2.Run([]*Job{tinyJob(t, "CS", Baseline())})
	if b.Stats.CacheHits != 0 || b.Stats.Executed != 1 {
		t.Fatalf("fingerprint change must force re-simulation, got %+v", b.Stats)
	}
	if _, err := os.Stat(filepath.Join(dir, "sim-vOLD")); !os.IsNotExist(err) {
		t.Error("stale fingerprint directory was not pruned")
	}
}

func TestCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	e := &Engine{Jobs: 1, Cache: c}
	j := tinyJob(t, "CS", Baseline())
	if err := e.Run([]*Job{j}).Err(); err != nil {
		t.Fatal(err)
	}
	key := j.Key(SimFingerprint)
	p := filepath.Join(dir, SimFingerprint, key[:2], key+".json")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh cache: the corrupt entry must be a counted miss, then re-run.
	c2 := NewCache(dir)
	e2 := &Engine{Jobs: 1, Cache: c2}
	b := e2.Run([]*Job{tinyJob(t, "CS", Baseline())})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.Executed != 1 {
		t.Fatalf("corrupt entry should force re-simulation, got %+v", b.Stats)
	}
	if st := c2.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}

	// A wrong-key entry (e.g. a renamed file) is equally rejected.
	gb, _ := json.Marshal(entry{Key: "deadbeef", Fingerprint: SimFingerprint, Result: b.Results[0]})
	if err := os.WriteFile(p, gb, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache(dir)
	if _, _, ok := c3.Get(key); ok {
		t.Error("entry with mismatched key must not hit")
	}
	if st := c3.Stats(); st.Corrupt != 1 {
		t.Errorf("mismatched key should count as corrupt, got %+v", st)
	}
}

// panicOnFinish is a Baseline policy that panics mid-run, inside a
// lifecycle hook the SM invokes from Tick.
type panicOnFinish struct{ sm.Policy }

func (panicOnFinish) OnCTAFinished(*sm.SM, *sm.CTA, int64) { panic("kaboom") }

func TestPanicIsolation(t *testing.T) {
	for name, pf := range map[string]gpu.PolicyFactory{
		"factory": func(sm.Config, *mem.Hierarchy) sm.Policy { panic("kaboom") },
		// The run loop does not recover: a panic under Tick unwinds through
		// gpu.Run and must still end as a PanicError, not a dead process.
		"hook": func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
			return panicOnFinish{gpu.Baseline()(cfg, hier)}
		},
	} {
		t.Run(name, func(t *testing.T) {
			jobs := []*Job{tinyJob(t, "CS", Custom("test/panic-"+name, pf)), tinyJob(t, "CS", Baseline())}
			b := (&Engine{Jobs: 2}).Run(jobs)
			if b.Errs[0] == nil || b.Results[0] != nil {
				t.Fatal("panicking job must fail")
			}
			var pe *PanicError
			if !errors.As(b.Errs[0], &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("want PanicError with stack, got %v", b.Errs[0])
			}
			var je *JobError
			if !errors.As(b.Errs[0], &je) {
				t.Fatalf("failure must carry the job label, got %v", b.Errs[0])
			}
			if b.Errs[1] != nil || b.Results[1] == nil {
				t.Fatal("healthy job must survive a sibling panic")
			}
			if err := b.Err(); err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("batch error should surface the panic, got %v", err)
			}
		})
	}
}

func TestJobTimeout(t *testing.T) {
	p, err := kernels.ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	// Full-scale CS takes far longer than a microsecond budget.
	j := &Job{Cfg: gpu.Default().Scale(16), Profile: p, Grid: p.GridCTAs, Policy: Baseline()}
	b := (&Engine{Jobs: 1, Timeout: time.Microsecond}).Run([]*Job{j})
	if b.Errs[0] == nil {
		t.Fatal("job should have timed out")
	}
	if !errors.Is(b.Errs[0], ErrJobTimeout) {
		t.Fatalf("want ErrJobTimeout, got %v", b.Errs[0])
	}
	if b.Stats.Failed != 1 {
		t.Fatalf("stats should count the failure: %+v", b.Stats)
	}
}

func TestStallsJobVerifiedBreakdown(t *testing.T) {
	j := tinyJob(t, "CS", FineRegDefault())
	j.Stalls = true
	b := (&Engine{Jobs: 1}).Run([]*Job{j})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	s := b.Results[0].Metrics.Stalls
	if s == nil || s.WarpSlotCycles == 0 {
		t.Fatal("stalls job must attach a populated breakdown")
	}
}

func TestTrackRegJobCarriesWindows(t *testing.T) {
	j := tinyJob(t, "CS", Baseline())
	j.TrackReg = true
	b := (&Engine{Jobs: 1}).Run([]*Job{j})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if len(b.Results[0].Windows) == 0 {
		t.Fatal("TrackReg job must carry register-usage windows")
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	e := &Engine{Jobs: 2, Cache: NewCache("")}
	if err := e.Run([]*Job{tinyJob(t, "CS", Baseline())}).Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run([]*Job{tinyJob(t, "CS", Baseline())}).Err(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Submitted != 2 || st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("cumulative stats wrong: %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(t.TempDir())
	j := tinyJob(t, "CS", Baseline())
	key := j.Key(SimFingerprint)
	res, err := Simulate(context.Background(), key, j)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Put(key, res)
			if r, _, ok := c.Get(key); ok {
				r.Metrics.Config = "scribble" // must not leak into the cache
			}
		}()
	}
	wg.Wait()
	r, _, ok := c.Get(key)
	if !ok || r.Metrics.Config == "scribble" {
		t.Fatal("cache returned a shared or corrupted result")
	}
}

func TestPolicySpecFactories(t *testing.T) {
	specs := []PolicySpec{
		Baseline(), VirtualThread(), RegDRAM(2), VTRegMutex(0.2),
		FineReg(128<<10, 128<<10), FineRegDefault(), FineRegFull(128<<10, 128<<10),
	}
	for _, s := range specs {
		if _, err := s.Factory(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
	if _, err := (PolicySpec{Kind: "custom:orphan"}).Factory(); err == nil {
		t.Error("custom spec without factory must error (e.g. after a cache decode)")
	}
}

// TestValidateBoundsSMArrays: MaxWarps and NumSchedulers size a worker's
// per-SM arrays (the event queue, the per-scheduler state), so a job that
// asks for 2^30 of either must fail validation rather than be admitted to
// an allocation no host survives. The guard itself stays admissible.
func TestValidateBoundsSMArrays(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*sm.Config)
		want string
	}{
		{"MaxWarps 2^30", func(c *sm.Config) { c.MaxWarps = 1 << 30 }, "MaxWarps 1073741824 exceeds the 4096-warp guard"},
		{"MaxWarps 4097", func(c *sm.Config) { c.MaxWarps = 4097 }, "MaxWarps 4097 exceeds"},
		{"NumSchedulers 2^30", func(c *sm.Config) { c.NumSchedulers = 1 << 30 }, "NumSchedulers 1073741824 exceeds MaxWarps 64"},
		{"NumSchedulers 65", func(c *sm.Config) { c.NumSchedulers = 65 }, "NumSchedulers 65 exceeds MaxWarps 64"},
	} {
		j := tinyJob(t, "CS", Baseline())
		tc.edit(&j.Cfg.SM)
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	j := tinyJob(t, "CS", Baseline())
	j.Cfg.SM.MaxWarps, j.Cfg.SM.NumSchedulers = 4096, 4096
	if err := j.Validate(); err != nil {
		t.Errorf("MaxWarps = NumSchedulers = 4096 rejected: %v", err)
	}
}

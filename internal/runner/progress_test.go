package runner

import (
	"sync"
	"testing"

	"finereg/internal/trace"
)

// progressRecorder records every JobSink callback it receives.
type progressRecorder struct {
	mu      sync.Mutex
	samples []trace.ProgressSample
	labels  []string
	queued  int
	done    int
}

func (r *progressRecorder) JobsQueued(n int) {
	r.mu.Lock()
	r.queued += n
	r.mu.Unlock()
}
func (r *progressRecorder) JobDone(bool, error) {
	r.mu.Lock()
	r.done++
	r.mu.Unlock()
}
func (r *progressRecorder) JobProgress(label string, s trace.ProgressSample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.labels = append(r.labels, label)
	r.mu.Unlock()
}

func TestProgressExcludedFromKey(t *testing.T) {
	plain := tinyJob(t, "CS", Baseline())
	sampled := tinyJob(t, "CS", Baseline())
	sampled.Cfg.Progress = func(trace.ProgressSample) {}
	sampled.Cfg.ProgressEvery = 64
	if plain.Key(SimFingerprint) != sampled.Key(SimFingerprint) {
		t.Fatal("Progress/ProgressEvery must not participate in the job key: sampled and unsampled runs share cache entries")
	}
}

func TestEngineForwardsProgressToSink(t *testing.T) {
	rec := &progressRecorder{}
	e := &Engine{Jobs: 1, Events: rec, ProgressEvery: 64}
	j := tinyJob(t, "CS", Baseline())
	j.Label = "cs-run"
	if err := e.Run([]*Job{j}).Err(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.samples) == 0 {
		t.Fatal("no progress samples reached the sink")
	}
	last := rec.samples[len(rec.samples)-1]
	if !last.Final {
		t.Error("last forwarded sample must be Final")
	}
	for i, label := range rec.labels {
		if label != "cs-run" {
			t.Fatalf("sample %d attributed to %q, want %q", i, label, "cs-run")
		}
	}
	if rec.queued != 1 || rec.done != 1 {
		t.Errorf("sink saw %d queued / %d done, want 1 / 1", rec.queued, rec.done)
	}
}

func TestEngineProgressComposesUserCallback(t *testing.T) {
	var mu sync.Mutex
	var userSamples int
	rec := &progressRecorder{}
	e := &Engine{Jobs: 1, Events: rec}
	j := tinyJob(t, "CS", Baseline())
	j.Cfg.ProgressEvery = 64
	j.Cfg.Progress = func(trace.ProgressSample) {
		mu.Lock()
		userSamples++
		mu.Unlock()
	}
	if err := e.Run([]*Job{j}).Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if userSamples == 0 {
		t.Fatal("user callback starved")
	}
	if len(rec.samples) != userSamples {
		t.Fatalf("sink saw %d samples, user callback %d — both must see every sample", len(rec.samples), userSamples)
	}
}

// TestConcurrentJobsOpsAttribution pins per-job exactness of the Ops
// deltas: two different jobs held in flight simultaneously (a rendezvous
// at each job's first sample forces the overlap) must each report deltas
// that sum to exactly their own run's totals, for every op key that maps
// to a stats.Metrics field. The deltas are differences of the run's own
// machine counters, so nothing another job does can reach them — under
// -race this also proves sampling shares no state across engine workers.
func TestConcurrentJobsOpsAttribution(t *testing.T) {
	rec := &progressRecorder{}
	e := &Engine{Jobs: 2, Events: rec, ProgressEvery: 64}
	jobs := []*Job{tinyJob(t, "CS", FineRegDefault()), tinyJob(t, "LB", FineRegDefault())}

	// Rendezvous: neither job may proceed past its first sample until
	// both have sampled once, guaranteeing the runs overlap in time.
	var barrier sync.WaitGroup
	barrier.Add(len(jobs))
	for _, j := range jobs {
		var once sync.Once
		j.Cfg.ProgressEvery = 64
		j.Cfg.Progress = func(trace.ProgressSample) {
			once.Do(func() {
				barrier.Done()
				barrier.Wait()
			})
		}
	}

	res := e.Run(jobs)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	// Sum each job's sampled deltas and check them against its own
	// metrics — exact equality, no tolerance: attribution is either
	// per-run or it is broken.
	sums := make([]map[string]int64, len(jobs))
	byLabel := map[string]map[string]int64{}
	for i, j := range jobs {
		sums[i] = map[string]int64{}
		byLabel[j.label()] = sums[i]
	}
	rec.mu.Lock()
	for i, s := range rec.samples {
		for k, v := range s.Ops {
			byLabel[rec.labels[i]][k] += v
		}
	}
	rec.mu.Unlock()
	var switches, spilled int64
	for i, r := range res.Results {
		m := r.Metrics
		for op, want := range map[string]int64{
			"gpu_cycles":         m.Cycles,
			"gpu_instructions":   m.Instructions,
			"sm_cta_launches":    m.CTAsLaunched,
			"sm_cta_retired":     m.CTAsLaunched, // the grid drained
			"sm_cta_switches":    m.CTASwitches,
			"sm_cta_full_stalls": m.CTAStalls,
			"mem_l2_accesses":    m.L2Accesses,
			"mem_l2_misses":      m.L2Misses,
			"pcrf_fill_regs":     m.PCRFReads,
			"pcrf_spill_regs":    m.PCRFWrites,
			"mem_dram_bytes":     m.DRAMDemandBytes + m.DRAMContextBytes + m.DRAMBitvecBytes,
			"regdram_dma_bytes":  m.DRAMContextBytes,
		} {
			if got := sums[i][op]; got != want {
				t.Errorf("job %d: sampled %s sums to %d, metrics report %d — ops bled across jobs", i, op, got, want)
			}
		}
		switches += m.CTASwitches
		spilled += m.PCRFWrites
	}
	if switches == 0 || spilled == 0 {
		t.Fatalf("jobs performed %d CTA switches and %d PCRF writes — the policy ops were compared at zero, proving nothing", switches, spilled)
	}
}

func TestEngineNoEventsNoSampling(t *testing.T) {
	// ProgressEvery on the engine without an Events sink must not graft a
	// sampling callback onto the job.
	e := &Engine{Jobs: 1, ProgressEvery: 64}
	j := tinyJob(t, "CS", Baseline())
	got := e.withProgress(j)
	if got != j {
		t.Fatal("withProgress must return the job unchanged when there is no sink")
	}
}

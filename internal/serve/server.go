// Package serve exposes the simulator fleet as a long-running HTTP/JSON
// service: single-job and batched submissions are validated, canonicalized
// into runner.Job keys (so duplicate in-flight and cached requests
// coalesce for free), admitted through a bounded queue, and executed on a
// shared run engine with its content-addressed cache. Progress streams to
// clients as server-sent events fed from each job's record, and /metrics
// exposes Prometheus-text counters.
//
// Admission is a degradation ladder, the same discipline FineReg applies
// to register space (ACRF → PCRF → context switch to DRAM) applied to
// requests: a job whose result is already known is answered immediately
// (coalesced/cached — the ACRF hit); a fresh job waits in the bounded
// queue for a worker (the PCRF spill); and once the queue is full the
// server sheds load with a 429 instead of queueing unboundedly (the
// context switch — latency traded for survival). Graceful shutdown drains
// in-flight jobs through the engine's cooperative gpu.Stop path.
package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"finereg/internal/gpu"
	"finereg/internal/runner"
	"finereg/internal/serve/metrics"
	"finereg/internal/trace"
)

// Config sizes the server.
type Config struct {
	// Engine runs the jobs — every admitted record is one Engine.Do; nil
	// builds a default engine with an in-memory cache. What Do executes is
	// the engine's business (Engine.Exec: the local simulator, or a fleet
	// coordinator's dispatcher). An Events sink the caller set on it (a CLI
	// progress line) keeps receiving the lifecycle stream; the server's own
	// metrics read Engine.Stats and the per-record progress callbacks
	// instead.
	Engine *runner.Engine
	// Workers is the number of admitted jobs in Engine.Do at once (<= 0
	// means GOMAXPROCS); AddWorkers grows it later.
	Workers int
	// QueueCap bounds the admission queue; a submission that does not fit
	// is shed with a 429 (<= 0 means DefaultQueueCap).
	QueueCap int
	// MaxBatch bounds jobs per batch request (<= 0 means
	// DefaultMaxBatch).
	MaxBatch int
	// MaxRecords bounds retained completed job records; the oldest are
	// evicted first (their results remain in the engine cache, so a
	// resubmission is still answered without re-simulation). <= 0 means
	// DefaultMaxRecords.
	MaxRecords int
	// ProgressEvery is the in-run progress sample period, in simulated
	// cycles, for jobs executed by this server: samples stream to SSE
	// subscribers as `progress` events and feed the /metrics rate gauges.
	// 0 means gpu.DefaultProgressEvery; < 0 disables in-run sampling
	// (lifecycle events still flow; the finereg_sim_*_total counters,
	// which are fed by the samples, stay 0). Sampling never changes
	// results or cache keys.
	ProgressEvery int64
}

// Defaults for Config's zero values.
const (
	DefaultQueueCap   = 64
	DefaultMaxBatch   = 256
	DefaultMaxRecords = 4096
	maxBatchesKept    = 1024
)

// Server is the simulation service. Create with New, serve with any
// http.Server (Server implements http.Handler), stop with Shutdown.
type Server struct {
	cfg    Config
	engine *runner.Engine
	reg    *metrics.Registry
	mux    *http.ServeMux

	mu       sync.Mutex
	records  map[string]*record // by id (= key prefix)
	batches  map[string]*batchRecord
	batchIDs []string // insertion order, for eviction
	doneIDs  []string // completed records, eviction order
	// queue holds admitted records no worker has taken yet. Only admit
	// sends, under mu, after checking the room; Shutdown closes it under
	// mu; workers receive.
	queue    chan *record
	draining bool
	batchSeq int64

	wg      sync.WaitGroup
	drainCh chan struct{}

	// test hooks: testBeforeRun runs in the worker after dequeue, before the
	// job starts; testKeysDerived runs in admit once every job's key is
	// hashed, before s.mu is taken.
	testBeforeRun   func(*record)
	testKeysDerived func()

	// metrics
	mSubmitted  *metrics.Counter
	mCoalesced  *metrics.Counter
	mShed       *metrics.Counter
	mDone       *metrics.Counter
	mFailed     *metrics.Counter
	mInflight   *metrics.Gauge
	mLatency    *metrics.Histogram
	mSSEOpen    *metrics.Gauge
	mSSEDropped *metrics.Counter
	mSamples    *metrics.Counter
	// mSimOps holds one finereg_sim_<op>_total counter per gpu.OpNames
	// entry, fed by the Ops deltas of the progress samples.
	mSimOps map[string]*metrics.Counter

	// rates holds the live sim-cycles/s of each in-flight sampled job
	// (updated per progress sample, removed at completion); the
	// finereg_sim_cycles_per_sec gauge sums it at scrape time.
	rateMu sync.Mutex
	rates  map[string]float64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = &runner.Engine{Cache: runner.NewCache("")}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = DefaultMaxRecords
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = gpu.DefaultProgressEvery
	}
	s := &Server{
		cfg:     cfg,
		engine:  cfg.Engine,
		reg:     metrics.NewRegistry(),
		records: map[string]*record{},
		batches: map[string]*batchRecord{},
		queue:   make(chan *record, cfg.QueueCap),
		drainCh: make(chan struct{}),
		rates:   map[string]float64{},
	}

	s.initMetrics()
	s.mux = http.NewServeMux()
	s.routes()
	s.AddWorkers(cfg.Workers)
	return s
}

// AddWorkers grows the worker pool by n; a draining server starts none.
func (s *Server) AddWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.wg.Add(n)
	for range n {
		go s.worker()
	}
}

// Registry returns the server's metrics registry (for registering extra
// process-level series before serving).
func (s *Server) Registry() *metrics.Registry { return s.reg }

func (s *Server) initMetrics() {
	r := s.reg
	s.mSubmitted = r.NewCounter("finereg_serve_submissions_total",
		"Job submissions accepted (including coalesced duplicates).")
	s.mCoalesced = r.NewCounter("finereg_serve_coalesced_total",
		"Submissions answered by an existing in-flight or completed job.")
	s.mShed = r.NewCounter("finereg_serve_shed_total",
		"Submissions rejected with 429 because the admission queue was full.")
	s.mDone = r.NewCounter("finereg_serve_jobs_done_total",
		"Jobs that finished successfully.")
	s.mFailed = r.NewCounter("finereg_serve_jobs_failed_total",
		"Jobs that finished with an error.")
	s.mInflight = r.NewGauge("finereg_serve_inflight_jobs",
		"Jobs currently executing on a worker.")
	s.mSSEOpen = r.NewGauge("finereg_serve_sse_subscribers",
		"Open SSE event-stream connections.")
	s.mSSEDropped = r.NewCounter("finereg_serve_sse_dropped_total",
		"Progress events an SSE subscriber skipped because they were pruned from the job's retained window before it read them (a fleet coordinator's forwarded progress samples ride such a subscription).")
	s.mSamples = r.NewCounter("finereg_serve_progress_samples_total",
		"In-run progress samples received from executing simulations.")
	s.mLatency = r.NewHistogram("finereg_serve_job_latency_seconds",
		"Admission-to-completion latency of finished jobs.",
		metrics.DefLatencyBuckets)
	r.NewGaugeFunc("finereg_serve_queue_depth",
		"Jobs waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	r.NewGaugeFunc("finereg_serve_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	// Engine- and cache-level series, read at scrape time.
	r.NewCounterFunc("finereg_engine_jobs_executed_total",
		"Fresh simulations executed by the run engine.",
		func() int64 { return s.engine.Stats().Executed })
	r.NewCounterFunc("finereg_engine_cache_hits_total",
		"Engine results served from the content-addressed cache.",
		func() int64 { return s.engine.Stats().CacheHits })
	// Cache hits split by the tier that served them: process memory or the
	// node's on-disk store.
	if c := s.engine.Cache; c != nil {
		vec := r.NewCounterFuncVec("finereg_cache_hits_total",
			"Content-addressed cache hits by serving tier.", "source")
		vec.Add("mem", func() int64 { return c.Stats().MemHits })
		vec.Add("disk", func() int64 { return c.Stats().DiskHits })
		r.NewCounterFunc("finereg_cache_misses_total",
			"Content-addressed cache lookups that missed every tier.",
			func() int64 { return c.Stats().Misses })
	}
	r.NewGaugeFunc("finereg_engine_inflight_simulations",
		"Simulations currently executing inside the engine.",
		func() float64 { return float64(s.engine.InFlight()) })
	r.NewGaugeFunc("finereg_cache_hit_ratio",
		"Cache hits over cache lookups (hits + misses).",
		func() float64 {
			if s.engine.Cache == nil {
				return 0
			}
			st := s.engine.Cache.Stats()
			if lookups := st.Hits() + st.Misses; lookups > 0 {
				return float64(st.Hits()) / float64(lookups)
			}
			return 0
		})
	// Simulation totals over the jobs this server ran (or, on a fleet
	// coordinator, forwarded). The aggregate live rate sums each in-flight
	// job's last sampled sim-cycles/s; the per-op totals accumulate the
	// progress samples' Ops deltas, so they stay 0 with sampling disabled.
	r.NewGaugeFunc("finereg_sim_cycles_per_sec",
		"Aggregate live simulation rate over all in-flight sampled jobs.",
		func() float64 {
			s.rateMu.Lock()
			defer s.rateMu.Unlock()
			var sum float64
			for _, v := range s.rates {
				sum += v
			}
			return sum
		})
	s.mSimOps = map[string]*metrics.Counter{}
	for _, op := range gpu.OpNames() {
		s.mSimOps[op] = r.NewCounter("finereg_sim_"+op+"_total",
			"Simulator op count summed over the progress samples of this server's jobs.")
	}
}

// onProgress is the per-record progress callback installed on admitted
// jobs: it appends the SSE progress event to the record, adds the sample's
// Ops to the finereg_sim_*_total counters and maintains the fleet rate
// gauge. Runs on the simulating worker goroutine.
func (s *Server) onProgress(rec *record) func(trace.ProgressSample) {
	return func(ps trace.ProgressSample) {
		rec.progress(ps)
		s.mSamples.Inc()
		for op, n := range ps.Ops {
			// A forwarded sample is remote input: unknown ops and
			// negative deltas are skipped, not trusted.
			if c := s.mSimOps[op]; c != nil && n > 0 {
				c.Add(n)
			}
		}
		s.rateMu.Lock()
		if ps.Final {
			delete(s.rates, rec.id)
		} else {
			s.rates[rec.id] = ps.CyclesPerSec
		}
		s.rateMu.Unlock()
	}
}

// jobID derives the server identity from the content-addressed key.
func jobID(key string) string { return "j" + key[:16] }

// errDraining and errQueueFull classify admission failures.
var (
	errDraining  = fmt.Errorf("serve: server is draining")
	errQueueFull = fmt.Errorf("serve: admission queue full")
)

// admit atomically admits a set of resolved jobs: every job is either
// coalesced onto an existing record or enqueued in arrival order; if the
// fresh jobs do not all fit in the queue's free room nothing is admitted
// and errQueueFull is returned (a batch is admitted whole or shed whole).
// Returns one status per job in input order.
func (s *Server) admit(jobs []*runner.Job) ([]SubmitStatus, []*record, error) {
	// Keys are derived before s.mu is taken: the canonical encoding and its
	// SHA-256 are the costliest step of admitting a known job, and under the
	// lock every other submission and status fetch would wait on them.
	fp := s.engine.Cache.KeyFingerprint()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key(fp)
	}
	if hook := s.testKeysDerived; hook != nil {
		hook()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, errDraining
	}

	type slot struct {
		rec       *record
		coalesced bool
	}
	slots := make([]slot, len(jobs))
	var fresh []*record
	var replaced []string // ids of failed records being re-admitted
	newIDs := map[string]*record{}
	for i, j := range jobs {
		key := keys[i]
		id := jobID(key)
		if rec, ok := s.records[id]; ok && !rec.failed() {
			slots[i] = slot{rec: rec, coalesced: true}
			continue
		} else if ok {
			// The earlier incarnation failed — timed out, its fleet briefly
			// empty. Like the engine, the record layer never caches a
			// failure: a resubmission re-runs under a fresh record (same id).
			replaced = append(replaced, id)
		}
		if rec, ok := newIDs[id]; ok { // duplicate within this submission
			slots[i] = slot{rec: rec, coalesced: true}
			continue
		}
		rec := newRecord(id, key, j)
		if s.cfg.ProgressEvery > 0 {
			// In-run sampling: excluded from the job key, so the sampled
			// job hits the same cache entries as an unsampled twin.
			j.Cfg.ProgressEvery = s.cfg.ProgressEvery
			j.Cfg.Progress = s.onProgress(rec)
		}
		newIDs[id] = rec
		fresh = append(fresh, rec)
		slots[i] = slot{rec: rec}
	}

	// Only admission sends, under s.mu, and workers only take, so the room
	// seen here can only grow before the sends below: each finds a slot.
	// Records of a shed submission are never registered and thus never
	// observable.
	if len(fresh) > cap(s.queue)-len(s.queue) {
		s.mShed.Add(int64(len(jobs)))
		return nil, nil, errQueueFull
	}
	for _, id := range replaced {
		s.forgetDoneLocked(id)
	}
	for _, rec := range fresh {
		s.records[rec.id] = rec
		// The submit event is appended before a worker can take the
		// record, so streams always open with "submit".
		rec.submitted()
		s.queue <- rec
	}

	out := make([]SubmitStatus, len(jobs))
	recs := make([]*record, len(jobs))
	for i, sl := range slots {
		out[i] = SubmitStatus{ID: sl.rec.id, Key: sl.rec.key, State: sl.rec.currentState(), Coalesced: sl.coalesced}
		recs[i] = sl.rec
		s.mSubmitted.Inc()
		if sl.coalesced {
			s.mCoalesced.Inc()
		}
	}
	return out, recs, nil
}

// forgetDoneLocked drops id's completed-record eviction entry when the
// record is replaced in place (a failed job being re-admitted), so the
// stale entry cannot later evict the fresh incarnation.
func (s *Server) forgetDoneLocked(id string) {
	for i, d := range s.doneIDs {
		if d == id {
			s.doneIDs = append(s.doneIDs[:i], s.doneIDs[i+1:]...)
			return
		}
	}
}

// worker takes admitted records one at a time through Engine.Do, under
// the key admission already derived.
func (s *Server) worker() {
	defer s.wg.Done()
	for rec := range s.queue {
		if s.isDraining() {
			// Queued but never started: fail fast so waiters unblock.
			if rec.finish(nil, errDraining, false) {
				s.completed(rec, false)
			}
			continue
		}
		if hook := s.testBeforeRun; hook != nil {
			hook(rec)
		}
		job := rec.start()
		s.mInflight.Add(1)
		res, cached, err := s.engine.Do(rec.key, job)
		s.mInflight.Add(-1)
		if rec.finish(res, err, cached) {
			s.completed(rec, err == nil)
		}
	}
}

// completed does terminal bookkeeping: counters, latency, and record
// eviction beyond the retention cap.
func (s *Server) completed(rec *record, ok bool) {
	if ok {
		s.mDone.Inc()
	} else {
		s.mFailed.Inc()
	}
	if lat := rec.latency(); lat > 0 {
		s.mLatency.Observe(lat.Seconds())
	}
	// The Final sample normally clears the rate entry; failed or
	// interrupted runs never emit one, so clear unconditionally.
	s.rateMu.Lock()
	delete(s.rates, rec.id)
	s.rateMu.Unlock()
	s.mu.Lock()
	s.doneIDs = append(s.doneIDs, rec.id)
	for len(s.doneIDs) > s.cfg.MaxRecords {
		victim := s.doneIDs[0]
		s.doneIDs = s.doneIDs[1:]
		delete(s.records, victim)
	}
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// lookup finds a record by id.
func (s *Server) lookup(id string) *record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records[id]
}

// registerBatch stores a batch record (bounded history).
func (s *Server) registerBatch(recs []*record) *batchRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchSeq++
	b := &batchRecord{id: fmt.Sprintf("b%06d", s.batchSeq), recs: recs}
	s.batches[b.id] = b
	s.batchIDs = append(s.batchIDs, b.id)
	for len(s.batchIDs) > maxBatchesKept {
		victim := s.batchIDs[0]
		s.batchIDs = s.batchIDs[1:]
		delete(s.batches, victim)
	}
	return b
}

func (s *Server) lookupBatch(id string) *batchRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[id]
}

package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/trace"
)

// Engine executes job batches on a worker pool. The zero value is usable:
// GOMAXPROCS workers, no cache, no timeout, no events. One Engine may run
// many batches (an experiments invocation issues one per figure); its
// cache and counters accumulate across them, which is what dedups repeated
// points between figures.
type Engine struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Cache dedups identical jobs within and across batches (nil = no
	// cache; duplicates within one batch still collapse via in-flight
	// tracking).
	Cache *Cache
	// Timeout is the per-job wall-clock budget for the simulation proper
	// (0 = none). A job that exceeds it is stopped cooperatively and
	// reported as ErrJobTimeout; the rest of the batch continues.
	Timeout time.Duration
	// Events receives job lifecycle notifications (nil = none). Calls are
	// serialized by the engine.
	Events trace.JobSink
	// ProgressEvery, when > 0, enables in-run progress sampling for every
	// executed job at this sim-cycle period: samples flow to Events as
	// JobProgress events (and to the job's own Cfg.Progress callback, if
	// set). 0 leaves sampling to each job's Cfg (a job with its own
	// Progress callback still samples, and its samples are still
	// forwarded to Events). Sampling never changes results — the period
	// and callback are excluded from job keys.
	ProgressEvery int64

	mu    sync.Mutex // guards Events calls and the cumulative counters
	total EngineStats

	// gmu guards the in-flight GPU registry (StopAll/InFlight introspection
	// for long-running front ends like internal/serve).
	gmu     sync.Mutex
	running map[*gpu.GPU]struct{}
}

// EngineStats accumulates scheduling counters across an Engine's batches.
type EngineStats struct {
	// Submitted counts jobs handed to Run; Executed counts fresh
	// simulations actually performed.
	Submitted, Executed int64
	// CacheHits counts results served by the cache (DiskHits of them came
	// from disk, RemoteHits from the remote tier); Deduped counts
	// duplicates that piggybacked on an identical in-flight job in the
	// same batch.
	CacheHits, DiskHits, RemoteHits, Deduped int64
	// Failed counts jobs that returned an error.
	Failed int64
}

// Stats snapshots the cumulative counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// ErrJobTimeout marks a job stopped by the per-job wall-clock budget.
var ErrJobTimeout = errors.New("runner: job wall-clock timeout")

// track registers a job's GPU for the lifetime of its simulation.
func (e *Engine) track(g *gpu.GPU) {
	e.gmu.Lock()
	if e.running == nil {
		e.running = map[*gpu.GPU]struct{}{}
	}
	e.running[g] = struct{}{}
	e.gmu.Unlock()
}

func (e *Engine) untrack(g *gpu.GPU) {
	e.gmu.Lock()
	delete(e.running, g)
	e.gmu.Unlock()
}

// InFlight returns how many simulations are executing right now (cache
// hits and queued jobs do not count). Introspection for serving front
// ends; the value is a snapshot and may be stale by the time it is read.
func (e *Engine) InFlight() int {
	e.gmu.Lock()
	defer e.gmu.Unlock()
	return len(e.running)
}

// StopAll cooperatively stops every in-flight simulation via gpu.Stop and
// returns how many were signalled. Each stopped job fails with
// gpu.ErrInterrupted (not ErrJobTimeout) and the rest of its batch
// continues; jobs not yet started are unaffected. This is the graceful-
// shutdown hook: a server draining under a deadline bounds its wait by
// stopping whatever is still running.
func (e *Engine) StopAll() int {
	e.gmu.Lock()
	defer e.gmu.Unlock()
	for g := range e.running {
		g.Stop()
	}
	return len(e.running)
}

// PanicError is a panic inside a job converted to a typed error, carrying
// the recovered value and stack so the failure is diagnosable without
// taking down the batch.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", p.Value) }

// JobError wraps a job failure with the job's label.
type JobError struct {
	Label string
	Err   error
}

// Error implements error.
func (e *JobError) Error() string { return e.Label + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Batch is the outcome of one Run: Results[i] and Errs[i] are job i's
// result and error, in submission order; exactly one of the two is
// non-nil per index. A batch with failures is a partial sweep — the
// successes are intact and Err aggregates the failures.
type Batch struct {
	Jobs    []*Job
	Results []*Result
	Errs    []error
	Stats   BatchStats
}

// BatchStats counts one Run's scheduling outcomes.
type BatchStats struct {
	Submitted, Executed, CacheHits, DiskHits, RemoteHits, Deduped, Failed int
	Wall                                                                  time.Duration
}

// Err returns nil when every job succeeded, otherwise an error wrapping
// the first failure and listing the rest (capped for readability).
func (b *Batch) Err() error {
	failed := b.Failed()
	if len(failed) == 0 {
		return nil
	}
	first := b.Errs[failed[0]]
	if len(failed) == 1 {
		return first
	}
	var rest []string
	for _, i := range failed[1:] {
		if len(rest) == 8 {
			rest = append(rest, fmt.Sprintf("... and %d more", len(failed)-1-len(rest)))
			break
		}
		rest = append(rest, b.Errs[i].Error())
	}
	return fmt.Errorf("%d/%d jobs failed: %w (also: %s)",
		len(failed), b.Stats.Submitted, first, strings.Join(rest, "; "))
}

// Failed returns the indices of failed jobs.
func (b *Batch) Failed() []int {
	var out []int
	for i, err := range b.Errs {
		if err != nil {
			out = append(out, i)
		}
	}
	return out
}

// flight tracks one in-progress key so duplicate submissions in the same
// batch wait for the leader instead of re-simulating.
type flight struct {
	done chan struct{}
	res  *Result // pristine; every taker clones
	err  error
}

// watchdog arms a Stop on the job's GPU when the timeout elapses. attach
// and fire may race (worker vs timer goroutine), hence the mutex.
type watchdog struct {
	mu      sync.Mutex
	g       *gpu.GPU
	expired bool
}

func (w *watchdog) attach(g *gpu.GPU) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.g = g
	if w.expired {
		g.Stop()
	}
}

func (w *watchdog) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.expired = true
	if w.g != nil {
		w.g.Stop()
	}
}

// fired reports whether the timeout elapsed (vs. an external Stop).
func (w *watchdog) fired() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.expired
}

// Run executes jobs and returns their results in submission order.
func (e *Engine) Run(jobs []*Job) *Batch {
	start := time.Now()
	b := &Batch{
		Jobs:    jobs,
		Results: make([]*Result, len(jobs)),
		Errs:    make([]error, len(jobs)),
	}
	b.Stats.Submitted = len(jobs)
	e.emit(func(s trace.JobSink) { s.BatchStart(len(jobs)) })

	fingerprint := e.Cache.KeyFingerprint()

	var (
		inflight = map[string]*flight{}
		fmu      sync.Mutex
		smu      sync.Mutex // batch stats
		wg       sync.WaitGroup
	)

	workers := e.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)

	account := func(f func(*BatchStats)) {
		smu.Lock()
		f(&b.Stats)
		smu.Unlock()
	}

	worker := func() {
		defer wg.Done()
		for i := range idx {
			j := jobs[i]
			key := j.Key(fingerprint)

			fmu.Lock()
			f, dup := inflight[key]
			if !dup {
				f = &flight{done: make(chan struct{})}
				inflight[key] = f
			}
			fmu.Unlock()

			if dup {
				<-f.done
				b.Results[i], b.Errs[i] = f.res.Clone(), f.err
				account(func(s *BatchStats) {
					s.Deduped++
					if f.err != nil {
						s.Failed++
					}
				})
				e.emit(func(s trace.JobSink) { s.JobDone(i, j.label(), true, f.err) })
				continue
			}

			cached := false
			if e.Cache != nil {
				if res, src, ok := e.Cache.Get(key); ok {
					f.res, cached = res, true
					account(func(s *BatchStats) {
						s.CacheHits++
						switch src {
						case "disk":
							s.DiskHits++
						case "remote":
							s.RemoteHits++
						}
					})
				}
			}
			if !cached {
				e.emit(func(s trace.JobSink) { s.JobStart(i, j.label()) })
				f.res, f.err = e.executeIsolated(i, j)
				account(func(s *BatchStats) { s.Executed++ })
				if f.err != nil {
					f.err = &JobError{Label: j.label(), Err: f.err}
					account(func(s *BatchStats) { s.Failed++ })
				} else if e.Cache != nil {
					e.Cache.Put(key, f.res)
				}
			}
			close(f.done)
			b.Results[i], b.Errs[i] = f.res.Clone(), f.err
			e.emit(func(s trace.JobSink) { s.JobDone(i, j.label(), cached, f.err) })
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	b.Stats.Wall = time.Since(start)
	e.emit(func(s trace.JobSink) { s.BatchEnd() })

	e.mu.Lock()
	e.total.Submitted += int64(b.Stats.Submitted)
	e.total.Executed += int64(b.Stats.Executed)
	e.total.CacheHits += int64(b.Stats.CacheHits)
	e.total.DiskHits += int64(b.Stats.DiskHits)
	e.total.RemoteHits += int64(b.Stats.RemoteHits)
	e.total.Deduped += int64(b.Stats.Deduped)
	e.total.Failed += int64(b.Stats.Failed)
	e.mu.Unlock()
	return b
}

// executeIsolated runs one job with fault isolation: a panic anywhere in
// the simulation becomes a *PanicError, and the optional wall-clock
// timeout stops the GPU cooperatively (the simulator checks the flag once
// per event step, so the stop lands promptly without leaking goroutines).
// The job's GPU is registered with the engine for its lifetime so StopAll
// can reach it. i is the job's batch index, used to label JobProgress
// events.
func (e *Engine) executeIsolated(i int, j *Job) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	j = e.withProgress(i, j)
	var w *watchdog
	if e.Timeout > 0 {
		w = &watchdog{}
		timer := time.AfterFunc(e.Timeout, w.fire)
		defer timer.Stop()
	}
	var tracked *gpu.GPU
	defer func() {
		if tracked != nil {
			e.untrack(tracked)
		}
	}()
	attach := func(g *gpu.GPU) {
		tracked = g
		e.track(g)
		if w != nil {
			w.attach(g)
		}
	}
	res, err = execute(j, attach)
	// An interrupted run is a timeout only if our watchdog pulled the
	// trigger; otherwise the stop came from outside (StopAll during a
	// drain) and the ErrInterrupted cause is reported as-is.
	if errors.Is(err, gpu.ErrInterrupted) && w != nil && w.fired() {
		err = fmt.Errorf("%w (%s): %v", ErrJobTimeout, e.Timeout, err)
	}
	return res, err
}

// withProgress splices in-run sampling into job i: when the engine or the
// job itself enables progress, the executed copy's Cfg.Progress both
// invokes the job's own callback and forwards the sample to Events as a
// JobProgress event. Returns j unchanged when no sampling is wanted. The
// shallow copy keeps the caller's Job pristine — Progress never becomes
// part of the submitted job's identity or state.
func (e *Engine) withProgress(i int, j *Job) *Job {
	user := j.Cfg.Progress
	if e.Events == nil {
		// Nobody to forward to; the job's own callback (if any) already
		// rides Cfg into execute.
		return j
	}
	if user == nil && e.ProgressEvery <= 0 {
		return j
	}
	jc := *j
	if jc.Cfg.ProgressEvery <= 0 {
		jc.Cfg.ProgressEvery = e.ProgressEvery
	}
	label := j.label()
	jc.Cfg.Progress = func(sample trace.ProgressSample) {
		if user != nil {
			user(sample)
		}
		e.emit(func(s trace.JobSink) { s.JobProgress(i, label, sample) })
	}
	return &jc
}

// emit serializes an Events call; no-op when Events is nil.
func (e *Engine) emit(f func(trace.JobSink)) {
	if e.Events == nil {
		return
	}
	e.mu.Lock()
	f(e.Events)
	e.mu.Unlock()
}

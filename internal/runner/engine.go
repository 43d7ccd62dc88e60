package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"finereg/internal/trace"
)

// Engine runs jobs. Do is the one path a job takes — coalesce on the key's
// in-flight entry, look the cache up, otherwise execute in isolation and
// commit — and Run is an ordered, Jobs-bounded fan-out over it. The zero
// value is usable: GOMAXPROCS workers, no cache, no timeout, no events, the
// in-process simulator. One Engine may serve many callers at once (an
// experiments invocation issues one batch per figure, a server one Do per
// admitted job); its cache and counters accumulate across them, which is
// what dedups repeated points between figures.
type Engine struct {
	// Jobs is Run's worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Cache dedups identical jobs across calls (nil = no cache; concurrent
	// duplicates and duplicates within one batch still collapse).
	Cache *Cache
	// Exec is what "execute" means for a job that missed the cache (nil =
	// Simulate, the in-process simulator). A fleet coordinator plugs its
	// dispatcher in here; everything around it — coalescing, the cache
	// bracket, isolation, the counters — is the same engine.
	Exec Executor
	// Timeout is the per-job wall-clock budget for the execution proper
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
	total Stats

	// fmu guards the in-flight state: one flight per key being resolved,
	// carrying its execution's cancel hook (StopAll/InFlight) while it runs.
	fmu     sync.Mutex
	flights map[string]*flight
}

// Executor runs one cache-missed job to completion. ctx ends when the
// engine's Timeout expires or StopAll is called; an executor must return
// promptly once it does. key is the job's content-addressed identity (a
// dispatcher places by it).
type Executor func(ctx context.Context, key string, j *Job) (*Result, error)

// Stats counts scheduling outcomes, of one Run (Batch.Stats) or of an
// Engine's lifetime (Engine.Stats).
type Stats struct {
	// Submitted counts jobs handed to Run or Do; Executed counts the ones
	// that reached the executor.
	Submitted, Executed int64
	// CacheHits counts results served by the cache (DiskHits of them came
	// from disk, RemoteHits from the remote tier); Deduped counts
	// duplicates that piggybacked on an identical job in flight or earlier
	// in the same batch.
	CacheHits, DiskHits, RemoteHits, Deduped int64
	// Failed counts jobs that returned an error.
	Failed int64
}

// srcDedup is the outcome source of a coalesced job; "" is a fresh
// execution and anything else the cache tier Cache.Get named.
const srcDedup = "dedup"

func (s *Stats) count(src string, err error) {
	s.Submitted++
	switch src {
	case "":
		s.Executed++
	case srcDedup:
		s.Deduped++
	case "disk":
		s.CacheHits++
		s.DiskHits++
	case "remote":
		s.CacheHits++
		s.RemoteHits++
	default:
		s.CacheHits++
	}
	if err != nil {
		s.Failed++
	}
}

// Stats snapshots the cumulative counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// ErrJobTimeout marks a job stopped by the per-job wall-clock budget.
var ErrJobTimeout = errors.New("runner: job wall-clock timeout")

// InFlight returns how many executions are under way right now (cache
// hits, coalesced waiters and queued jobs do not count). Introspection for
// serving front ends; the value is a snapshot and may be stale by the time
// it is read.
func (e *Engine) InFlight() int { return e.executing(false) }

// StopAll cooperatively stops every execution under way and returns how
// many were signalled. Each stopped simulation fails with
// gpu.ErrInterrupted (not ErrJobTimeout) and the rest of its batch
// continues; jobs not yet started are unaffected. This is the graceful-
// shutdown hook: a server draining under a deadline bounds its wait by
// stopping whatever is still running.
func (e *Engine) StopAll() int { return e.executing(true) }

// executing counts the flights inside the executor, cancelling each when
// stop is set.
func (e *Engine) executing(stop bool) (n int) {
	e.fmu.Lock()
	defer e.fmu.Unlock()
	for _, f := range e.flights {
		if f.cancel != nil {
			if n++; stop {
				f.cancel()
			}
		}
	}
	return n
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
	Stats   Stats
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

// Run executes jobs and returns their results in submission order. A
// batch's duplicates fold onto their first occurrence before the fan-out,
// so the counts are a function of the job list, not of worker timing.
func (e *Engine) Run(jobs []*Job) *Batch {
	b := &Batch{
		Jobs:    jobs,
		Results: make([]*Result, len(jobs)),
		Errs:    make([]error, len(jobs)),
	}
	e.emit(func(s trace.JobSink) { s.JobsQueued(len(jobs)) })

	fingerprint := e.Cache.KeyFingerprint()
	keys := make([]string, len(jobs))
	srcs := make([]string, len(jobs))
	leader := make([]int, len(jobs)) // index of the first job with the same key
	first := make(map[string]int, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key(fingerprint)
		if l, dup := first[keys[i]]; dup {
			leader[i] = l
		} else {
			first[keys[i]], leader[i] = i, i
		}
	}

	workers := e.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(first) {
		workers = len(first)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				b.Results[i], srcs[i], b.Errs[i] = e.do(keys[i], jobs[i])
			}
		}()
	}
	for i := range jobs {
		if leader[i] == i {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()

	for i, l := range leader {
		if l != i {
			b.Results[i], srcs[i], b.Errs[i] = b.Results[l].Clone(), srcDedup, b.Errs[l]
			e.done(srcDedup, b.Errs[i])
		}
		b.Stats.count(srcs[i], b.Errs[i])
	}
	return b
}

// Do runs one job whose key the caller already holds: a served job's whole
// life between dequeue and commit. cached reports a result that did not
// come from a fresh execution (cache hit, or coalesced onto an identical
// job in flight). The result is the caller's own copy.
func (e *Engine) Do(key string, j *Job) (res *Result, cached bool, err error) {
	e.emit(func(s trace.JobSink) { s.JobsQueued(1) })
	res, src, err := e.do(key, j)
	return res, src != "", err
}

// flight is one key being resolved; callers that arrive meanwhile wait
// for the leader instead of re-executing.
type flight struct {
	done    chan struct{}
	waiters int                // guarded by Engine.fmu
	cancel  context.CancelFunc // non-nil while executing; guarded by Engine.fmu
	res     *Result            // pristine while anyone waits; every taker clones
	err     error
}

// do resolves one job and counts it once: src is "" for a fresh
// execution, the cache tier for a hit, srcDedup for a coalesced wait.
func (e *Engine) do(key string, j *Job) (res *Result, src string, err error) {
	e.fmu.Lock()
	f, dup := e.flights[key]
	if dup {
		f.waiters++
	} else {
		if e.flights == nil {
			e.flights = make(map[string]*flight)
		}
		f = &flight{done: make(chan struct{})}
		e.flights[key] = f
	}
	e.fmu.Unlock()

	if dup {
		<-f.done
		res, src, err = f.res.Clone(), srcDedup, f.err
	} else {
		f.res, src, f.err = e.lead(f, key, j)
		// The entry goes once the result is committed: a later caller
		// meets the cache, and a failure is never handed to one.
		e.fmu.Lock()
		delete(e.flights, key)
		shared := f.waiters > 0
		e.fmu.Unlock()
		close(f.done)
		if res, err = f.res, f.err; shared {
			res = res.Clone()
		}
	}
	e.done(src, err)
	return res, src, err
}

// done counts one finished job and reports it to Events.
func (e *Engine) done(src string, err error) {
	e.mu.Lock()
	e.total.count(src, err)
	if e.Events != nil {
		e.Events.JobDone(src != "", err)
	}
	e.mu.Unlock()
}

// lead is the cache bracket around one execution: the engine never caches
// a failure.
func (e *Engine) lead(f *flight, key string, j *Job) (*Result, string, error) {
	if res, src, ok := e.Cache.Get(key); ok {
		return res, src, nil
	}
	res, err := e.execute(f, key, j)
	if err != nil {
		return nil, "", &JobError{Label: j.label(), Err: err}
	}
	e.Cache.Put(key, res)
	return res, "", nil
}

// execute runs one job on the executor with fault isolation: a panic
// anywhere under it becomes a *PanicError, and the execution's context —
// held by f for StopAll, bounded by Timeout — stops it cooperatively (the
// simulator checks its flag once per event step, so the stop lands
// promptly without leaking goroutines).
func (e *Engine) execute(f *flight, key string, j *Job) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.setCancel(f, cancel)
	defer e.setCancel(f, nil)
	if e.Timeout > 0 {
		var stopTimer context.CancelFunc
		ctx, stopTimer = context.WithTimeout(ctx, e.Timeout)
		defer stopTimer()
	}

	exec := e.Exec
	if exec == nil {
		exec = Simulate
	}
	res, err = exec(ctx, key, e.withProgress(j))
	// An interrupted run is a timeout only if our watchdog pulled the
	// trigger; otherwise the stop came from outside (StopAll during a
	// drain) and the cause is reported as-is.
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		err = fmt.Errorf("%w (%s): %v", ErrJobTimeout, e.Timeout, err)
	}
	return res, err
}

func (e *Engine) setCancel(f *flight, c context.CancelFunc) {
	e.fmu.Lock()
	f.cancel = c
	e.fmu.Unlock()
}

// withProgress splices in-run sampling into j: when the engine or the job
// itself enables progress, the executed copy's Cfg.Progress both invokes
// the job's own callback and forwards the sample to Events as a
// JobProgress event. Returns j unchanged when no sampling is wanted. The
// shallow copy keeps the caller's Job pristine — Progress never becomes
// part of the submitted job's identity or state.
func (e *Engine) withProgress(j *Job) *Job {
	user := j.Cfg.Progress
	if e.Events == nil {
		// Nobody to forward to; the job's own callback (if any) already
		// rides Cfg into the executor.
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
		e.emit(func(s trace.JobSink) { s.JobProgress(label, sample) })
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

package serve

import (
	"sync"
	"time"

	"finereg/internal/runner"
	"finereg/internal/trace"
)

// Job lifecycle states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// Event kinds.
const (
	eventSubmit   = "submit"
	eventStart    = "start"
	eventProgress = "progress"
	eventFinish   = "finish"
)

// progressKeep bounds how many progress events the record's log retains:
// every reader sees the lifecycle events plus the most recent progress
// window, and a long run cannot grow a record without bound. A reader that
// keeps up reads every sample; one that falls further behind skips the
// pruned ones, never the newest.
const progressKeep = 16

// record is one admitted job: the canonical runner.Job, its lifecycle
// state, its result, and the event log that is the job's SSE stream — each
// subscriber is a cursor into it (since). The record's identity is derived
// from the job key, so duplicate submissions resolve to the same record —
// the serving layer's coalescing mirrors the engine's in-flight dedup one
// level up.
//
// Lifetime: a record holds its job only until it is terminal. Records are
// retained long after that (Config.MaxRecords) to answer resubmissions and
// status fetches, which need the label and the result, not the machine
// configuration, profile and program text; finish drops the job, and the
// worker takes it from start, under the record lock, never from the field.
type record struct {
	id    string
	key   string
	label string // the job's Label, kept past the job itself

	mu        sync.Mutex
	job       *runner.Job // nil once terminal
	state     string
	seq       int64 // monotone event sequence (history may be pruned)
	nProgress int   // progress events currently retained in events
	events    []Event
	// wake is closed by the next append; made on demand by since, so a
	// record nobody is waiting on allocates none.
	wake     chan struct{}
	result   *runner.Result
	errMsg   string
	cached   bool
	queued   time.Time
	started  time.Time
	finished time.Time

	// done is closed on the terminal transition (test/wait convenience).
	done chan struct{}
}

func newRecord(id, key string, j *runner.Job) *record {
	return &record{
		id: id, key: key, label: j.Label, job: j,
		state: stateQueued,
		done:  make(chan struct{}),
	}
}

// currentState reads the lifecycle state alone — what admission needs of a
// record it coalesces onto, where status() would copy the whole JobStatus.
func (r *record) currentState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// failed reports a terminal failure; admission re-runs such a job rather
// than coalescing onto it.
func (r *record) failed() bool { return r.currentState() == stateFailed }

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// appendLocked stamps ev with the next sequence number and the record's
// identity and state, appends it to the log, and wakes the readers waiting
// for it; the caller holds r.mu.
func (r *record) appendLocked(ev Event) {
	r.seq++
	ev.Seq, ev.Job, ev.Label, ev.State, ev.AtMS = r.seq, r.id, r.label, r.state, time.Now().UnixMilli()
	r.events = append(r.events, ev)
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// since returns a copy of the retained events after seq. When there are
// none it returns instead a channel that the next append closes, shared
// by every reader waiting on this record.
func (r *record) since(seq int64) ([]Event, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := len(r.events)
	for i > 0 && r.events[i-1].Seq > seq {
		i--
	}
	if i == len(r.events) {
		if r.wake == nil {
			r.wake = make(chan struct{})
		}
		return nil, r.wake
	}
	return append([]Event(nil), r.events[i:]...), nil
}

// progress records one in-run sample as a `progress` event, pruning the
// oldest retained one past progressKeep. Samples arriving after the
// terminal transition are ignored — the stream contract is that finish is
// last.
func (r *record) progress(s trace.ProgressSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == stateDone || r.state == stateFailed {
		return
	}
	if r.nProgress >= progressKeep {
		// Lifecycle events are always kept, so the log stays submit/start +
		// a sliding progress window (+ finish).
		for i, old := range r.events {
			if old.Kind == eventProgress {
				r.events = append(r.events[:i], r.events[i+1:]...)
				r.nProgress--
				break
			}
		}
	}
	r.appendLocked(Event{Kind: eventProgress, ProgressSample: &s})
	r.nProgress++
}

// submitted marks admission.
func (r *record) submitted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued = time.Now()
	r.appendLocked(Event{Kind: eventSubmit})
}

// start marks the dequeue→running transition and hands the worker the job
// to run.
func (r *record) start() *runner.Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = stateRunning
	r.started = time.Now()
	r.appendLocked(Event{Kind: eventStart})
	return r.job
}

// finish records the terminal state and wakes waiters. err == nil means
// success; cached reports a cache/dedup hit. The commit is at-most-once:
// a record that is already terminal ignores further finishes and reports
// false — under fleet dispatch a requeued job can in principle complete
// twice (the node presumed dead finishes after its replacement), and only
// the first result, keyed by the record's content hash, is committed.
func (r *record) finish(res *runner.Result, err error, cached bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == stateDone || r.state == stateFailed {
		return false
	}
	r.finished = time.Now()
	r.cached = cached
	r.job = nil
	if err != nil {
		r.state = stateFailed
		r.errMsg = err.Error()
	} else {
		r.state = stateDone
		r.result = res
	}
	r.appendLocked(Event{Kind: eventFinish, Cached: r.cached, Error: r.errMsg})
	close(r.done)
	return true
}

// latency returns queued→finished wall time (0 until finished).
func (r *record) latency() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished.IsZero() || r.queued.IsZero() {
		return 0
	}
	return r.finished.Sub(r.queued)
}

// status snapshots the record as a JobStatus.
func (r *record) status() JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return JobStatus{
		ID:           r.id,
		Key:          r.key,
		Label:        r.label,
		State:        r.state,
		Cached:       r.cached,
		Error:        r.errMsg,
		Result:       r.result,
		QueuedAtMS:   unixMS(r.queued),
		StartedAtMS:  unixMS(r.started),
		FinishedAtMS: unixMS(r.finished),
	}
}

// batchRecord groups the records of one POST /v1/batches submission.
type batchRecord struct {
	id   string
	recs []*record
}

func (b *batchRecord) status() BatchStatus {
	st := BatchStatus{ID: b.id, Total: len(b.recs)}
	for _, r := range b.recs {
		js := r.status()
		st.Jobs = append(st.Jobs, js)
		if js.Done() {
			st.Done++
			if js.State == stateFailed {
				st.Failed++
			}
		}
	}
	return st
}

package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finereg/internal/kernels"
	"finereg/internal/runner"
)

// submitOne submits one job and returns its status, failing the test on
// any error.
func submitOne(t *testing.T, c *Client, j *runner.Job) SubmitStatus {
	t.Helper()
	st, err := c.SubmitJob(context.Background(), RequestFromJob(j))
	if err != nil {
		t.Fatalf("submit %s: %v", j.Label, err)
	}
	return *st
}

// TestFIFODequeueOrder: with the one worker parked, queued jobs dequeue in
// the order they arrived.
func TestFIFODequeueOrder(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	entered, release := blockWorkers(s)

	// Park the worker on a first job so the next three pile up.
	submitOne(t, c, tinyJob(t, "CS", runner.Baseline()))
	<-entered

	want := []string{
		submitOne(t, c, tinyJob(t, "LB", runner.VirtualThread())).ID,
		submitOne(t, c, tinyJob(t, "CS", runner.VirtualThread())).ID,
		submitOne(t, c, tinyJob(t, "LB", runner.Baseline())).ID,
	}
	close(release)
	for i, id := range want {
		if rec := <-entered; rec.id != id {
			t.Fatalf("dequeue %d: got %s, want %s", i, rec.id, id)
		}
	}
}

// TestBatchPartialFitShedsWhole: a batch larger than the queue's free room
// but not its capacity is shed whole — no job of it is queued, registered
// or part of a batch — and counted once per job; a batch that fits the
// room is then admitted.
func TestBatchPartialFitShedsWhole(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	entered, release := blockWorkers(s)
	defer close(release)

	submitOne(t, c, tinyJob(t, "CS", runner.Baseline()))
	<-entered
	submitOne(t, c, tinyJob(t, "CS", runner.VirtualThread())) // one slot of two taken

	two := BatchRequest{Jobs: []JobRequest{
		RequestFromJob(tinyJob(t, "LB", runner.Baseline())),
		RequestFromJob(tinyJob(t, "LB", runner.VirtualThread())),
	}}
	err := c.Call(context.Background(), http.MethodPost, "/v1/batches", two, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("2-job batch into 1 free slot: got %v, want 429", err)
	}
	if ae.Body.QueueDepth != 1 || ae.Body.QueueCap != 2 {
		t.Errorf("shed envelope depth=%d cap=%d, want 1/2", ae.Body.QueueDepth, ae.Body.QueueCap)
	}
	s.mu.Lock()
	depth, nrecs, nbatches := len(s.queue), len(s.records), len(s.batches)
	s.mu.Unlock()
	if depth != 1 || nrecs != 2 || nbatches != 0 {
		t.Errorf("after the shed: queue depth %d, %d records, %d batches; want 1, 2, 0", depth, nrecs, nbatches)
	}
	if got := s.mShed.Value(); got != 2 {
		t.Errorf("shed counter %d, want 2 (one per job of the batch)", got)
	}

	st, err := c.SubmitBatch(context.Background(), two.Jobs[:1])
	if err != nil {
		t.Fatalf("1-job batch into 1 free slot: %v", err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != stateQueued || st.Jobs[0].Coalesced {
		t.Errorf("1-job batch = %+v, want one fresh queued job", st.Jobs)
	}
	if depth := len(s.queue); depth != 2 {
		t.Errorf("queue depth %d after the 1-job batch, want 2", depth)
	}
}

// TestFailedJobResubmissionReruns: a record that failed for a transient
// reason must not answer later submissions of the same job with the stale
// failure. The engine never caches a failure; neither does the record
// layer — the resubmission runs under a fresh record with the same id.
func TestFailedJobResubmissionReruns(t *testing.T) {
	var healthy atomic.Bool
	eng := &runner.Engine{Cache: runner.NewCache(""), Exec: func(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
		if !healthy.Load() {
			return nil, runner.ErrJobTimeout // a busy host, a briefly empty fleet
		}
		return runner.Simulate(ctx, key, j)
	}}
	_, c := newTestServer(t, Config{Engine: eng, Workers: 1})
	job := tinyJob(t, "CS", runner.Baseline())

	first := submitOne(t, c, job)
	if st := waitJobDone(t, c, first.ID); st.State != stateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("first run finished %s (%q), want the injected timeout", st.State, st.Error)
	}

	healthy.Store(true)
	again := submitOne(t, c, job)
	if again.ID != first.ID || again.Coalesced {
		t.Fatalf("resubmission = id %s coalesced %v, want a fresh record under id %s", again.ID, again.Coalesced, first.ID)
	}
	if st := waitJobDone(t, c, first.ID); st.State != stateDone || st.Result == nil {
		t.Fatalf("resubmission finished %s (%q), want done: the stale failure is sticky", st.State, st.Error)
	}
	if got := eng.Stats().Executed; got != 2 {
		t.Errorf("engine executed %d times, want 2 (the failure, then the re-run)", got)
	}

	// A success, unlike a failure, is worth coalescing onto.
	if third := submitOne(t, c, job); !third.Coalesced {
		t.Error("submission after the successful re-run was not coalesced")
	}
	body := scrapeMetrics(t, c)
	for _, want := range []string{"finereg_serve_jobs_failed_total 1", "finereg_serve_jobs_done_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// waitJobDone polls a job until it is terminal.
func waitJobDone(t *testing.T, c *Client, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.JobStatus(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func scrapeMetrics(t *testing.T, c *Client) string {
	t.Helper()
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grepMetric filters a metrics body to lines containing substr (test
// failure diagnostics).
func grepMetric(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestShedWaitJitter: the backoff sleep must stay within [wait/2, wait]
// and honor Retry-After.
func TestShedWaitJitter(t *testing.T) {
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		w := shedWait(time.Second, "")
		if w < 500*time.Millisecond || w > time.Second {
			t.Fatalf("shedWait(1s) = %v outside [500ms, 1s]", w)
		}
		distinct[w] = true
	}
	if len(distinct) < 2 {
		t.Error("shedWait produced no jitter over 64 draws")
	}
	for i := 0; i < 64; i++ {
		if w := shedWait(time.Second, "2"); w < time.Second || w > 2*time.Second {
			t.Fatalf("shedWait(Retry-After: 2) = %v outside [1s, 2s]", w)
		}
	}
	if w := shedWait(time.Second, "bogus"); w < 500*time.Millisecond || w > time.Second {
		t.Fatalf("shedWait with unparseable Retry-After = %v, want base fallback", w)
	}
	if w := shedWait(0, ""); w != 0 {
		t.Fatalf("shedWait(0) = %v, want 0", w)
	}
}

// TestMetricsHitSources: a cache hit on an evicted record's job must show
// up under finereg_cache_hits_total{source="mem"}.
func TestMetricsHitSources(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, MaxRecords: 1})
	j1 := tinyJob(t, "CS", runner.Baseline())
	j2 := tinyJob(t, "CS", runner.VirtualThread())
	// One at a time: j2 must finish after j1 for the eviction below.
	if err := (&runner.Engine{Jobs: 1, Exec: c.Execute}).Run([]*runner.Job{j1, j2}).Err(); err != nil {
		t.Fatal(err)
	}
	// j2's completion evicts j1's record (MaxRecords 1) — a moment after the
	// finish event Execute returned on — so resubmitting j1 re-enters the
	// queue and hits the engine's memory cache tier.
	id1 := jobID(j1.Key(runner.SimFingerprint))
	for deadline := time.Now().Add(30 * time.Second); s.lookup(id1) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("j1's record was never evicted")
		}
	}
	st := submitOne(t, c, j1)
	waitJobDone(t, c, st.ID)

	body := scrapeMetrics(t, c)
	for _, want := range []string{
		`finereg_cache_hits_total{source="mem"} 1`,
		`finereg_cache_hits_total{source="disk"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetric(body, "cache_hits"))
		}
	}
}

// TestUnbuildableProfileRefusedAtAdmission: admission builds a profile
// job's program, so a profile the generator refuses fails Job.Validate and
// POST /v1/jobs answers 400 naming the field — it is never queued, and never
// fails in a worker. Each of these LI shapes was admitted before.
func TestUnbuildableProfileRefusedAtAdmission(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		edit func(*kernels.Profile)
		want string
	}{
		{func(p *kernels.Profile) { p.LoopTrips = 0 }, "LoopTrips must be >= 1"},
		{func(p *kernels.Profile) { p.Persistent = 0 }, "Persistent must be >= 1"},
		{func(p *kernels.Profile) { p.Regs = 3 }, "Regs 3 out of range"},
		{func(p *kernels.Profile) { p.WarpsPerCTA = 40 }, "WarpsPerCTA 40 out of range"},
	} {
		j := tinyJob(t, "LI", runner.FineRegDefault())
		tc.edit(&j.Profile)
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate: got %v, want an error naming %q", err, tc.want)
		}
		_, err := c.SubmitJob(context.Background(), RequestFromJob(j))
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Body.Error, tc.want) {
			t.Errorf("POST /v1/jobs: got %v, want a 400 naming %q", err, tc.want)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.records); n != 0 {
		t.Errorf("%d records retained for refused submissions", n)
	}
}

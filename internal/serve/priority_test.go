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

	"finereg/internal/runner"
)

// submitOne submits one job with admission metadata and returns its
// status, failing the test on any error.
func submitOne(t *testing.T, c *Client, j *runner.Job, prio int, client string) SubmitStatus {
	t.Helper()
	req := RequestFromJob(j)
	req.Priority = prio
	req.Client = client
	st, err := c.SubmitJob(context.Background(), req)
	if err != nil {
		t.Fatalf("submit %s: %v", j.Label, err)
	}
	return *st
}

// TestPriorityDequeueOrder: with one worker parked, queued jobs must
// dequeue in strict priority order regardless of arrival order.
func TestPriorityDequeueOrder(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	entered, release := blockWorkers(s)

	// Park the worker on a dummy so subsequent submissions pile up.
	submitOne(t, c, tinyJob(t, "CS", runner.Baseline()), 0, "")
	<-entered

	low := submitOne(t, c, tinyJob(t, "CS", runner.VirtualThread()), 0, "")
	high := submitOne(t, c, tinyJob(t, "LB", runner.Baseline()), 5, "")
	mid := submitOne(t, c, tinyJob(t, "LB", runner.VirtualThread()), 2, "")

	close(release)
	want := []string{high.ID, mid.ID, low.ID}
	for i, id := range want {
		rec := <-entered
		if rec.id != id {
			t.Fatalf("dequeue %d: got %s (prio %d), want %s", i, rec.id, rec.pri(), id)
		}
	}
}

// TestFairShareRoundRobin: equal-priority jobs of different clients must
// drain round-robin, so one client's bulk sweep cannot starve another.
func TestFairShareRoundRobin(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 16})
	entered, release := blockWorkers(s)

	submitOne(t, c, tinyJob(t, "CS", runner.Baseline()), 0, "")
	<-entered

	// alice bulk-submits three, then bob two; FIFO would run all of
	// alice's first.
	submitOne(t, c, tinyJob(t, "CS", runner.VirtualThread()), 0, "alice")
	submitOne(t, c, tinyJob(t, "LB", runner.Baseline()), 0, "alice")
	submitOne(t, c, tinyJob(t, "LB", runner.VirtualThread()), 0, "alice")
	submitOne(t, c, tinyJob(t, "CS", runner.FineRegDefault()), 0, "bob")
	submitOne(t, c, tinyJob(t, "LB", runner.FineRegDefault()), 0, "bob")

	close(release)
	var got []string
	for i := 0; i < 5; i++ {
		rec := <-entered
		got = append(got, rec.clientID())
	}
	want := []string{"alice", "bob", "alice", "bob", "alice"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

// TestPreemption: a higher-priority submission to a full queue evicts a
// strictly lower-priority queued job instead of being shed; an
// equal-priority newcomer still sheds; and the preempted job can be
// resubmitted and re-run.
func TestPreemption(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	entered, release := blockWorkers(s)

	submitOne(t, c, tinyJob(t, "CS", runner.Baseline()), 0, "")
	<-entered // worker parked; queue now empty

	victimJob := tinyJob(t, "CS", runner.VirtualThread())
	victim := submitOne(t, c, victimJob, 0, "") // fills the one-slot queue
	winner := submitOne(t, c, tinyJob(t, "LB", runner.Baseline()), 3, "")

	// The victim must be terminally failed with the preemption error.
	vs, err := c.JobStatus(context.Background(), victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vs.State != stateFailed || !strings.Contains(vs.Error, "preempted") {
		t.Fatalf("victim state %q error %q, want failed/preempted", vs.State, vs.Error)
	}

	// Equal priority does not preempt: shed with 429.
	req := RequestFromJob(tinyJob(t, "LB", runner.VirtualThread()))
	req.Priority = 3
	_, err = c.SubmitJob(context.Background(), req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("equal-priority submission to full queue: got %v, want 429", err)
	}

	if body := scrapeMetrics(t, c); !strings.Contains(body, "finereg_serve_preempted_total 1") {
		t.Errorf("metrics missing preemption count:\n%s", grepMetric(body, "preempted"))
	}

	close(release)
	waitJobDone(t, c, winner.ID)

	// The preempted job resubmits as a fresh record (same id) and runs.
	resub := submitOne(t, c, victimJob, 0, "")
	if resub.ID != victim.ID {
		t.Fatalf("resubmitted victim got id %s, want %s", resub.ID, victim.ID)
	}
	if resub.Coalesced {
		t.Fatal("resubmitted preempted job was coalesced onto the failed record")
	}
	st := waitJobDone(t, c, victim.ID)
	if st.State != stateDone {
		t.Fatalf("resubmitted victim finished %s (%s), want done", st.State, st.Error)
	}
	_ = s
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

	first := submitOne(t, c, job, 0, "")
	if st := waitJobDone(t, c, first.ID); st.State != stateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("first run finished %s (%q), want the injected timeout", st.State, st.Error)
	}

	healthy.Store(true)
	again := submitOne(t, c, job, 0, "")
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
	if third := submitOne(t, c, job, 0, ""); !third.Coalesced {
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
	st := submitOne(t, c, j1, 0, "")
	waitJobDone(t, c, st.ID)

	body := scrapeMetrics(t, c)
	for _, want := range []string{
		`finereg_cache_hits_total{source="mem"} 1`,
		`finereg_cache_hits_total{source="disk"} 0`,
		`finereg_cache_hits_total{source="remote"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetric(body, "cache_hits"))
		}
	}
}

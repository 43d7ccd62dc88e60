package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/trace"
)

// tinyJob returns a small but real simulation job (2-SM machine, shrunken
// grid) so service tests exercise the actual simulator.
func tinyJob(t *testing.T, bench string, pol runner.PolicySpec) *runner.Job {
	t.Helper()
	p, err := kernels.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return &runner.Job{
		Cfg:     gpu.Default().Scale(2),
		Profile: p,
		Grid:    int(float64(p.GridCTAs)*0.1 + 0.5),
		Policy:  pol,
		Label:   bench + "/" + pol.Kind,
	}
}

// newTestServer builds a Server plus an httptest front end and returns a
// wired Client. The server is shut down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, &Client{Base: hs.URL, ShedBackoff: 5 * time.Millisecond}
}

// runRemote runs jobs on the server behind c the way users do: through an
// engine whose executor is c.Execute, every job in flight at once.
func runRemote(c *Client, jobs ...*runner.Job) *runner.Batch {
	return (&runner.Engine{Jobs: len(jobs), Exec: c.Execute}).Run(jobs)
}

// countingTransport counts the requests a client issues and the 429s it
// is answered with.
type countingTransport struct{ n, shed atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		ct.shed.Add(1)
	}
	return resp, err
}

// recordingSink is a trace.JobSink that counts what the engine reports.
type recordingSink struct{ queued, done, cached int }

func (r *recordingSink) JobsQueued(n int)                         { r.queued += n }
func (r *recordingSink) JobProgress(string, trace.ProgressSample) {}
func (r *recordingSink) JobDone(cached bool, err error) {
	if r.done++; cached {
		r.cached++
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEndToEndByteIdentical is the tentpole acceptance test: a sweep
// through an engine whose executor is the HTTP service must return
// byte-identical results, under the same cache keys, as the same jobs run
// directly on a runner.Engine — and the server sits behind that engine: its
// counters and event sink see every job, and a repeat of the sweep is
// answered by its cache without one request.
func TestEndToEndByteIdentical(t *testing.T) {
	jobs := []*runner.Job{
		tinyJob(t, "CS", runner.Baseline()),
		tinyJob(t, "CS", runner.VirtualThread()),
		tinyJob(t, "LB", runner.FineRegDefault()),
	}
	n := int64(len(jobs))

	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	var wire countingTransport
	c.HTTP = &http.Client{Transport: &wire}
	sink := &recordingSink{}
	eng := &runner.Engine{Cache: runner.NewCache(t.TempDir()), Exec: c.Execute, Events: sink}
	remote := eng.Run(jobs)
	if err := remote.Err(); err != nil {
		t.Fatalf("remote batch: %v", err)
	}
	for i := range jobs {
		want := mustJSON(t, direct.Results[i])
		got := mustJSON(t, remote.Results[i])
		if !bytes.Equal(want, got) {
			t.Errorf("job %d (%s): remote result differs from direct run\ndirect: %s\nremote: %s",
				i, jobs[i].Label, want, got)
		}
	}
	if st := eng.Stats(); st.Submitted != n || st.Executed != n || st.Failed != 0 {
		t.Errorf("client engine stats after the remote sweep = %+v, want %d submitted and executed", st, n)
	}
	if sink.queued != len(jobs) || sink.done != len(jobs) || sink.cached != 0 {
		t.Errorf("client engine events: %d queued, %d done (%d cached), want %d/%d/0", sink.queued, sink.done, sink.cached, n, n)
	}

	// The repeat is the local cache's: no request leaves the process.
	sent := wire.n.Load()
	again := eng.Run(jobs)
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if got := wire.n.Load() - sent; got != 0 {
		t.Errorf("repeat of a cached sweep issued %d HTTP requests, want 0", got)
	}
	if st := eng.Stats(); st.CacheHits != n || st.Executed != n {
		t.Errorf("client engine stats after the repeat = %+v, want %d cache hits and still %d executed", st, n, n)
	}
	for i := range jobs {
		if !bytes.Equal(mustJSON(t, direct.Results[i]), mustJSON(t, again.Results[i])) {
			t.Errorf("job %d (%s): cached repeat differs from direct run", i, jobs[i].Label)
		}
	}

	// Key agreement: the server derives the same content-addressed keys
	// the engine would.
	sub, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(jobs[0])})
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs[0].Key(runner.SimFingerprint); sub.Jobs[0].Key != want {
		t.Errorf("server key %s != local key %s", sub.Jobs[0].Key, want)
	}
	if !sub.Jobs[0].Coalesced {
		t.Error("resubmission of a completed job was not coalesced")
	}
	if got := s.engine.Stats().Executed; got != 3 {
		t.Errorf("engine executed %d simulations, want 3", got)
	}
}

// TestExecuteRejectsForeignFingerprint: a server that keys jobs under
// another simulator fingerprint (an older binary) runs another model. Its
// result must never come back under the caller's key: the execution fails,
// naming both keys, and the caller's cache stays empty.
func TestExecuteRejectsForeignFingerprint(t *testing.T) {
	stale := runner.NewCache("")
	stale.Fingerprint = "finereg-sim-OLD"
	_, c := newTestServer(t, Config{Engine: &runner.Engine{Cache: stale}, Workers: 1})

	job := tinyJob(t, "CS", runner.Baseline())
	local := runner.NewCache("")
	b := (&runner.Engine{Cache: local, Exec: c.Execute}).Run([]*runner.Job{job})
	var le *LostError
	if err := b.Err(); !errors.As(err, &le) {
		t.Fatalf("execution on a version-skewed server: got %v, want a *LostError", err)
	}
	ours, theirs := job.Key(runner.SimFingerprint), job.Key("finereg-sim-OLD")
	for _, key := range []string{ours, theirs} {
		if !strings.Contains(le.Error(), key[:12]) {
			t.Errorf("error %q does not name key prefix %s", le, key[:12])
		}
	}
	if _, _, ok := local.Get(ours); ok {
		t.Error("the stale server's result was committed under the current key")
	}
}

// TestExecuteTimeoutCancelsRequests: the engine's per-job Timeout bounds a
// remote execution like a local one — it ends with ErrJobTimeout, and the
// request the client was blocked in is cancelled, not abandoned: the server
// sees its event stream close while the job is still parked.
func TestExecuteTimeoutCancelsRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	entered, release := blockWorkers(s)
	defer close(release)

	eng := &runner.Engine{Exec: c.Execute, Timeout: 50 * time.Millisecond}
	b := eng.Run([]*runner.Job{tinyJob(t, "CS", runner.Baseline())})
	<-entered // the server held the job the whole time
	if err := b.Err(); !errors.Is(err, runner.ErrJobTimeout) {
		t.Fatalf("remote execution past the engine's Timeout: got %v, want ErrJobTimeout", err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.mSSEOpen.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the event-stream request outlived the timed-out execution")
		}
	}
}

// TestWarmCacheResubmit: a second submission of an already-computed batch
// must be answered without re-simulation (the coalesce-or-cache rung of
// the admission ladder).
func TestWarmCacheResubmit(t *testing.T) {
	jobs := []*runner.Job{
		tinyJob(t, "CS", runner.Baseline()),
		tinyJob(t, "LB", runner.Baseline()),
	}
	s, c := newTestServer(t, Config{Workers: 2})
	if err := runRemote(c, jobs...).Err(); err != nil {
		t.Fatal(err)
	}
	executed := s.engine.Stats().Executed

	b := runRemote(c, jobs...)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.engine.Stats().Executed; got != executed {
		t.Errorf("warm resubmission re-simulated: executed %d -> %d", executed, got)
	}
	for i, res := range b.Results {
		if res == nil {
			t.Errorf("warm resubmission job %d has no result", i)
		}
	}

	// Even with the server-side record evicted, the engine cache answers.
	s.mu.Lock()
	for id := range s.records {
		delete(s.records, id)
	}
	s.doneIDs = nil
	s.mu.Unlock()
	if err := runRemote(c, jobs...).Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.engine.Stats().Executed; got != executed {
		t.Errorf("evicted-record resubmission re-simulated: executed %d -> %d", executed, got)
	}
}

// TestSSELifecycle: the event stream must deliver submit, start, and
// finish for a job, replaying history for late subscribers.
func TestSSELifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	sub, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "CS", runner.Baseline()))})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Jobs[0].ID

	resp, err := http.Get(c.Base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	var kinds []string
	var finish Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload: %v", err)
			}
			if ev.Kind == eventFinish {
				finish = ev
			}
		}
	}
	// The server closes the stream after the finish event, so the scanner
	// terminates on EOF. Freshly executed jobs interleave progress samples
	// (at minimum the end-of-run Final one) between start and finish; the
	// lifecycle skeleton around them must be exact and finish must be last.
	var lifecycle []string
	nProgress := 0
	for _, k := range kinds {
		if k == eventProgress {
			nProgress++
			continue
		}
		lifecycle = append(lifecycle, k)
	}
	want := []string{eventSubmit, eventStart, eventFinish}
	if strings.Join(lifecycle, ",") != strings.Join(want, ",") {
		t.Fatalf("lifecycle kinds %v, want %v (full stream %v)", lifecycle, want, kinds)
	}
	if nProgress == 0 {
		t.Error("fresh job streamed no progress events; the Final sample must reach the stream")
	}
	if kinds[len(kinds)-1] != eventFinish {
		t.Fatalf("stream must end with finish, got %v", kinds)
	}
	if finish.State != stateDone {
		t.Errorf("finish event state %q, want %q", finish.State, stateDone)
	}
	if finish.Job != id {
		t.Errorf("finish event names job %q, want %q", finish.Job, id)
	}
}

// blockWorkers installs a testBeforeRun hook that parks every worker until
// release is closed, reporting each dequeue on entered.
func blockWorkers(s *Server) (entered chan *record, release chan struct{}) {
	entered = make(chan *record, 16)
	release = make(chan struct{})
	s.testBeforeRun = func(rec *record) {
		entered <- rec
		<-release
	}
	return entered, release
}

// TestLoadShed: with one worker busy and the one-slot queue full, a fresh
// submission must be shed with 429 + Retry-After and the queue-state
// envelope, and the shed must be visible in /metrics. Nothing about the
// shed request is retained server-side (bounded memory).
func TestLoadShed(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	entered, release := blockWorkers(s)

	submit := func(j *runner.Job) (*http.Response, error) {
		body := mustJSON(t, RequestFromJob(j))
		return http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	}

	// A: dequeued and parked in the hook. B: occupies the queue slot.
	respA, err := submit(tinyJob(t, "CS", runner.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	var subA SubmitStatus
	if err := json.NewDecoder(respA.Body).Decode(&subA); err != nil {
		t.Fatal(err)
	}
	respA.Body.Close()
	<-entered
	respB, err := submit(tinyJob(t, "CS", runner.VirtualThread()))
	if err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()

	// C: queue full -> shed.
	respC, err := submit(tinyJob(t, "CS", runner.FineRegDefault()))
	if err != nil {
		t.Fatal(err)
	}
	defer respC.Body.Close()
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(respC.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.QueueCap != 1 || eb.QueueDepth != 1 {
		t.Errorf("shed envelope depth=%d cap=%d, want 1/1", eb.QueueDepth, eb.QueueCap)
	}
	s.mu.Lock()
	nrecs := len(s.records)
	s.mu.Unlock()
	if nrecs != 2 {
		t.Errorf("shed submission left state behind: %d records, want 2", nrecs)
	}
	if got := s.mShed.Value(); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}

	mresp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"finereg_serve_shed_total 1",
		"finereg_serve_queue_depth 1",
		"finereg_serve_queue_capacity 1",
		"finereg_cache_hit_ratio",
		"finereg_serve_job_latency_seconds_bucket",
		"# TYPE finereg_serve_job_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q", want)
		}
	}

	close(release)
	rec := s.lookup(subA.ID)
	if rec == nil {
		t.Fatal("job A record vanished")
	}
	select {
	case <-rec.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never finished after release")
	}
}

// TestCoalesceInFlight: an identical submission while the first is still
// executing must coalesce onto the same record — one simulation, one ID —
// even across separate HTTP requests (the engine's in-flight dedup is
// per-Run; this is the serving layer's own rung).
func TestCoalesceInFlight(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	entered, release := blockWorkers(s)

	job := tinyJob(t, "CS", runner.Baseline())
	sub1, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(job)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker holds the job pre-start

	sub2, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(job)})
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Jobs[0].Coalesced {
		t.Error("duplicate in-flight submission was not coalesced")
	}
	if sub1.Jobs[0].ID != sub2.Jobs[0].ID {
		t.Errorf("duplicate got a different ID: %s vs %s", sub1.Jobs[0].ID, sub2.Jobs[0].ID)
	}

	// Duplicates within one batch also share the record.
	sub3, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(job), RequestFromJob(job)})
	if err != nil {
		t.Fatal(err)
	}
	if sub3.Jobs[0].ID != sub3.Jobs[1].ID {
		t.Error("intra-batch duplicates got distinct IDs")
	}

	close(release)
	rec := s.lookup(sub1.Jobs[0].ID)
	select {
	case <-rec.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job never finished")
	}
	if got := s.engine.Stats().Executed; got != 1 {
		t.Errorf("coalesced job executed %d times, want 1", got)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight job finish, fails queued
// jobs fast, and rejects new submissions with 503.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	hs := httptest.NewServer(s)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	entered, release := blockWorkers(s)

	subA, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "CS", runner.Baseline()))})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	subB, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "LB", runner.Baseline()))})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining: new submissions are refused with 503.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if s.isDraining() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "HS", runner.Baseline()))})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: got %v, want 503", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	stA := s.lookup(subA.Jobs[0].ID).status()
	if stA.State != stateDone {
		t.Errorf("in-flight job state %q after drain, want %q (err %q)", stA.State, stateDone, stA.Error)
	}
	stB := s.lookup(subB.Jobs[0].ID).status()
	if stB.State != stateFailed || !strings.Contains(stB.Error, "draining") {
		t.Errorf("queued job state %q err %q, want fast drain failure", stB.State, stB.Error)
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestBadRequests pins the 400/404 surfaces.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxBatch: 2})

	post := func(path string, body any) *http.Response {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", bytes.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	expect := func(resp *http.Response, code int, msg string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("status %d, want %d", resp.StatusCode, code)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error envelope: %v", err)
		}
		if msg != "" && !strings.Contains(eb.Error, msg) {
			t.Errorf("error %q lacks %q", eb.Error, msg)
		}
	}

	expect(post("/v1/jobs", JobRequest{Bench: "NOPE", Policy: runner.Baseline()}), 400, "")
	expect(post("/v1/jobs", JobRequest{Policy: runner.Baseline()}), 400, "neither bench nor profile")
	expect(post("/v1/jobs", map[string]any{"bogus_field": 1}), 400, "bad request body")
	// Admission is one FIFO: a priority or a client id is a field no
	// request carries, refused rather than ignored.
	expect(post("/v1/jobs", map[string]any{"bench": "CS", "policy": runner.Baseline(), "priority": 1}), 400, `unknown field "priority"`)
	expect(post("/v1/jobs", map[string]any{"bench": "CS", "policy": runner.Baseline(), "client": "x"}), 400, `unknown field "client"`)
	expect(post("/v1/batches", BatchRequest{}), 400, "no jobs")
	expect(post("/v1/batches", BatchRequest{Jobs: []JobRequest{
		{Bench: "CS", Policy: runner.Baseline()},
		{Bench: "LB", Policy: runner.Baseline()},
		{Bench: "MM", Policy: runner.Baseline()},
	}}), 400, "limit")
	expect(post("/v1/jobs", JobRequest{Bench: "CS", Policy: runner.PolicySpec{Kind: "bogus"}}), 400, "")

	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/batches/b999999", "/v1/jobs/jdeadbeef/events"} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestOversizedBodyRejected: a request body past maxBodyBytes is cut off
// and answered with a structured 413 instead of being read to the end,
// and the server keeps serving afterwards.
func TestOversizedBodyRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	body := io.MultiReader(strings.NewReader(`{"bench":"`), strings.NewReader(strings.Repeat("A", maxBodyBytes)), strings.NewReader(`"}`))
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /v1/jobs: status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	if !strings.Contains(eb.Error, "request body too large") {
		t.Errorf("error %q does not say the body was too large", eb.Error)
	}

	if err := runRemote(c, tinyJob(t, "CS", runner.Baseline())).Err(); err != nil {
		t.Fatalf("server stopped serving after the oversized request: %v", err)
	}
}

// TestBatchStatusProgression: batch status aggregates its jobs and
// reports completion.
func TestBatchStatusProgression(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	jobs := []JobRequest{
		RequestFromJob(tinyJob(t, "CS", runner.Baseline())),
		RequestFromJob(tinyJob(t, "CS", runner.VirtualThread())),
	}
	sub, err := c.SubmitBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != 2 {
		t.Fatalf("batch submit returned %d jobs", len(sub.Jobs))
	}
	var st *BatchStatus
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, err = c.BatchStatus(context.Background(), sub.ID); err != nil {
			t.Fatal(err)
		}
		if st.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %+v", st)
		}
	}
	if st.Total != 2 || st.Done != 2 || st.Failed != 0 {
		t.Errorf("final batch status %+v", st)
	}
	for _, js := range st.Jobs {
		if js.Result == nil {
			t.Errorf("job %s finished without a result", js.ID)
		}
		if js.QueuedAtMS == 0 || js.StartedAtMS == 0 || js.FinishedAtMS == 0 {
			t.Errorf("job %s lacks timeline stamps: %+v", js.ID, js)
		}
	}
}

// TestClientShedBackoff: a shed submission is waited out until capacity
// frees up — the client side of the admission ladder, for SubmitBatch and
// for a job executed through Execute alike — while a batch that can never
// fit fails immediately instead of retrying forever.
func TestClientShedBackoff(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	entered, release := blockWorkers(s)

	// Park the worker on A and fill the one-slot queue with B.
	if _, err := c.SubmitBatch(context.Background(), []JobRequest{
		RequestFromJob(tinyJob(t, "CS", runner.Baseline()))}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := c.SubmitBatch(context.Background(), []JobRequest{
		RequestFromJob(tinyJob(t, "CS", runner.VirtualThread()))}); err != nil {
		t.Fatal(err)
	}

	// A two-job batch exceeds the whole queue: fail fast, no retry loop.
	never := []JobRequest{
		RequestFromJob(tinyJob(t, "CS", runner.FineRegDefault())),
		RequestFromJob(tinyJob(t, "LB", runner.FineRegDefault())),
	}
	if _, err := c.SubmitBatch(context.Background(), never); err == nil ||
		!strings.Contains(err.Error(), "never fit") {
		t.Errorf("oversize batch: got %v, want never-fit failure", err)
	}

	// A one-job submission and a one-job execution shed now but get
	// through once the worker drains the backlog.
	var batchWire, execWire countingTransport
	batcher, executor := *c, *c
	batcher.HTTP, executor.HTTP = &http.Client{Transport: &batchWire}, &http.Client{Transport: &execWire}
	done := make(chan error, 2)
	go func() {
		_, err := batcher.SubmitBatch(context.Background(), []JobRequest{
			RequestFromJob(tinyJob(t, "HS", runner.Baseline()))})
		done <- err
	}()
	go func() { done <- runRemote(&executor, tinyJob(t, "HS", runner.FineRegDefault())).Err() }()
	for deadline := time.Now().Add(30 * time.Second); batchWire.shed.Load() == 0 || execWire.shed.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sheds seen: SubmitBatch %d, Execute %d; want both shed at least once", batchWire.shed.Load(), execWire.shed.Load())
		}
	}
	select {
	case err := <-done:
		t.Fatalf("a submission returned %v before capacity freed", err)
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("retrying submission failed: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("retrying submission never got through")
		}
	}
}

// TestCallBoundsDecodedResponse: Call reads at most maxResponseBytes of a
// response it decodes, however much an undeclared-length body goes on to
// send — a wedged or hostile peer costs a bounded read, then an error.
func TestCallBoundsDecodedResponse(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte("x"), 1<<20)
		w.Write([]byte(`"`))
		w.(http.Flusher).Flush() // no Content-Length from here on
		for i := 0; i < 2*maxResponseBytes>>20; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer hs.Close()
	var out string
	err := (&Client{Base: hs.URL}).Call(context.Background(), http.MethodGet, "/", nil, &out)
	if err == nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("oversized response: got %v, want a decode error at the bound", err)
	}
	if out != "" {
		t.Errorf("decoded %d bytes of an over-long value", len(out))
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/runner"
)

// The warm path is a submission that coalesces onto a finished record and
// the status fetch that follows. These tests pin what keeps it cheap —
// compact bodies with a length, keys hashed outside the server lock, a
// finished record that no longer holds its job — and the two front-door
// faults fixed with it.

// primed runs one tiny job to completion on a fresh server and returns its
// exact-form request and its id.
func primed(t *testing.T, cfg Config) (*Server, *Client, JobRequest, string) {
	t.Helper()
	s, c := newTestServer(t, cfg)
	job := tinyJob(t, "CS", runner.Baseline())
	if err := runRemote(c, job).Err(); err != nil {
		t.Fatal(err)
	}
	return s, c, RequestFromJob(job), jobID(job.Key(runner.SimFingerprint))
}

// TestResponsesCompactWithLength: every JSON route answers one line with a
// Content-Length (so never chunked), success or error alike; the event
// stream is still a stream.
func TestResponsesCompactWithLength(t *testing.T) {
	_, c, req, id := primed(t, Config{Workers: 1})
	batch, err := c.SubmitBatch(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}

	for _, rt := range []struct {
		method, path string
		body         any
		status       int
	}{
		{"POST", "/v1/jobs", req, 200},
		{"POST", "/v1/jobs", RequestFromJob(tinyJob(t, "LB", runner.Baseline())), 202},
		{"POST", "/v1/jobs", JobRequest{Policy: runner.Baseline()}, 400},
		{"POST", "/v1/jobs", map[string]any{"bogus_field": 1}, 400},
		{"POST", "/v1/batches", BatchRequest{Jobs: []JobRequest{req}}, 202},
		{"POST", "/v1/batches", BatchRequest{}, 400},
		{"GET", "/v1/jobs/" + id, nil, 200},
		{"GET", "/v1/jobs/jdeadbeef", nil, 404},
		{"GET", "/v1/jobs/jdeadbeef/events", nil, 404},
		{"GET", "/v1/batches/" + batch.ID, nil, 200},
		{"GET", "/v1/batches/b999999", nil, 404},
		{"GET", "/healthz", nil, 200},
	} {
		var body io.Reader
		if rt.body != nil {
			body = bytes.NewReader(mustJSON(t, rt.body))
		}
		hr, err := http.NewRequest(rt.method, c.Base+rt.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		name := rt.method + " " + rt.path
		if resp.StatusCode != rt.status {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, rt.status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				name, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
		if !json.Valid(raw) || bytes.IndexByte(raw, '\n') != len(raw)-1 || bytes.IndexByte(raw, '\t') >= 0 {
			t.Errorf("%s: body is not one line of JSON: %q", name, raw)
		}
	}

	resp, err := http.Get(c.Base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" || resp.ContentLength >= 0 {
		t.Errorf("event stream: Content-Type %q, Content-Length %d; want a stream of undeclared length", ct, resp.ContentLength)
	}
	if !bytes.HasPrefix(raw, []byte("id: 1\nevent: submit\ndata: {")) || !bytes.HasSuffix(raw, []byte("}\n\n")) {
		t.Errorf("event stream framing changed: %q", raw)
	}
}

// TestClientDecodesIndentedAndCompact: in a mixed fleet a new client meets
// servers that still tab-indent their bodies and send them chunked. Both
// shapes decode to the same value.
func TestClientDecodesIndentedAndCompact(t *testing.T) {
	_, c, _, id := primed(t, Config{Workers: 1})
	want, err := c.JobStatus(context.Background(), id)
	if err != nil || want.Result == nil {
		t.Fatalf("status of the primed job: %+v, %v", want, err)
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // headers gone: no Content-Length, body chunked
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		enc.Encode(want)
	}))
	defer old.Close()
	got, err := (&Client{Base: old.URL}).JobStatus(context.Background(), id)
	if err != nil {
		t.Fatalf("indented, chunked body: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("indented body decoded to\n%+v\nthe compact one to\n%+v", got, want)
	}
}

// TestFinishedRecordReleasesJob: a record holds its job while a worker may
// still need it and lets go once terminal, done or failed; what is read
// afterwards — the label, in statuses and replayed events — stays.
func TestFinishedRecordReleasesJob(t *testing.T) {
	boom := errors.New("boom")
	var fail atomic.Bool
	eng := &runner.Engine{Cache: runner.NewCache("")}
	eng.Exec = func(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
		if fail.Load() {
			return nil, boom
		}
		return runner.Simulate(ctx, key, j)
	}
	s, c := newTestServer(t, Config{Engine: eng, Workers: 1})
	entered, release := blockWorkers(s)

	held := func(rec *record) *runner.Job {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.job
	}
	for _, tc := range []struct {
		bench, state string
		fail         bool
	}{{"CS", stateDone, false}, {"LB", stateFailed, true}} {
		fail.Store(tc.fail)
		job := tinyJob(t, tc.bench, runner.Baseline())
		sub, err := c.SubmitJob(context.Background(), RequestFromJob(job))
		if err != nil {
			t.Fatal(err)
		}
		rec := <-entered
		if held(rec) == nil {
			t.Fatalf("%s: a dequeued record has no job for its worker", tc.bench)
		}
		release <- struct{}{}
		<-rec.done
		if j := held(rec); j != nil {
			t.Errorf("%s: %s record still holds its job", tc.bench, tc.state)
		}
		st, err := c.JobStatus(context.Background(), sub.ID)
		if err != nil || st.State != tc.state || st.Label != job.Label {
			t.Errorf("%s: status after release = %+v, %v; want state %s, label %q", tc.bench, st, err, tc.state, job.Label)
		}
		var labels []string
		if err := c.StreamEvents(context.Background(), sub.ID, func(ev Event) bool {
			labels = append(labels, ev.Label)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, l := range labels {
			if l != job.Label {
				t.Errorf("%s: replayed event labels %q, want all %q", tc.bench, labels, job.Label)
				break
			}
		}
	}
}

// TestAdmitHashesOutsideLock: with Server.mu held by the test, an admission
// still gets through deriving its keys — it blocks only afterwards, on the
// lock — so no submission or status fetch ever waits on another's SHA-256.
func TestAdmitHashesOutsideLock(t *testing.T) {
	s, _, req, id := primed(t, Config{Workers: 1})
	job, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	hashed := make(chan struct{})
	s.testKeysDerived = func() { close(hashed) }

	s.mu.Lock()
	admitted := make(chan []SubmitStatus, 1)
	go func() {
		sts, _, _ := s.admit([]*runner.Job{job})
		admitted <- sts
	}()
	select {
	case <-hashed:
	case <-time.After(10 * time.Second):
		s.mu.Unlock()
		t.Fatal("admit did not derive its keys while Server.mu was held: Key is called under the lock")
	}
	select {
	case <-admitted:
		s.mu.Unlock()
		t.Fatal("admit finished without Server.mu")
	default:
	}
	s.mu.Unlock()
	if sts := <-admitted; len(sts) != 1 || sts[0].ID != id || !sts[0].Coalesced || sts[0].State != stateDone {
		t.Errorf("admission after the lock was released = %+v, want the primed record, coalesced and done", sts)
	}
}

// TestAbsurdCacheSizesRejected: admission no longer allocates a machine's
// caches to check them, so nothing but the bound stands between a hostile
// size and a worker's gpu.New. At the parent 1<<36 passed admission (8 GiB
// of arrays, twice) and 1<<40 killed the process inside the handler. A
// single-set cache of an admissible size is refused too: its every access
// would scan the whole cache. So are MaxWarps and NumSchedulers past their
// guards, which size the per-SM arrays the same way.
func TestAbsurdCacheSizesRejected(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		edit func(*gpu.Config)
		want string
	}{
		{"L2 64 GiB", func(c *gpu.Config) { c.L2Bytes = 1 << 36 }, "L2: 68719476736 bytes exceeds"},
		{"L2 1 TiB", func(c *gpu.Config) { c.L2Bytes = 1 << 40 }, "L2: 1099511627776 bytes exceeds"},
		{"L1 1 GiB", func(c *gpu.Config) { c.SM.L1Bytes = 1 << 30 }, "L1: 1073741824 bytes exceeds"},
		// Within the size guards, but one set: every access would scan
		// 131 072 (L1) or 8 Mi (L2) tags.
		{"L1 one 16 MiB set", func(c *gpu.Config) { c.SM.L1Bytes, c.SM.L1Ways = 16<<20, 131072 },
			"L1: mem: cache of 131072 ways exceeds the 64-way guard"},
		{"L2 one 1 GiB set", func(c *gpu.Config) { c.L2Bytes, c.L2Ways = 1<<30, 1<<23 },
			"L2: mem: cache of 8388608 ways exceeds the 64-way guard"},
		// Not caches, but sized by sm.New the same way: 2^30 event-queue
		// slots (32 GiB an SM), or 2^30 sets of per-scheduler state.
		{"MaxWarps 2^30", func(c *gpu.Config) { c.SM.MaxWarps = 1 << 30 },
			"MaxWarps 1073741824 exceeds the 4096-warp guard"},
		{"NumSchedulers 2^30", func(c *gpu.Config) { c.SM.NumSchedulers = 1 << 30 },
			"NumSchedulers 1073741824 exceeds MaxWarps 64"},
	} {
		req := RequestFromJob(tinyJob(t, "CS", runner.Baseline()))
		tc.edit(req.Cfg)
		_, err := c.SubmitJob(context.Background(), req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Body.Error, tc.want) {
			t.Errorf("%s: got %v, want a 400 naming %q", tc.name, err, tc.want)
		}
	}
	// The largest machine the convenience form builds stays admissible.
	big := gpu.Default().Scale(4096)
	req := RequestFromJob(tinyJob(t, "CS", runner.Baseline()))
	req.Cfg = &big
	if _, err := req.Resolve(); err != nil {
		t.Errorf("Default().Scale(4096) (L2 %d bytes) rejected: %v", big.L2Bytes, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.records); n != 0 {
		t.Errorf("%d records retained for rejected submissions", n)
	}
}

// TestCycleBudgetPastScoreboardRejected: the SM scoreboard holds int32
// cycles, so admission refuses a cycle budget of 2^31 or more with a 400,
// as it refuses a negative one; 2^31-1 is still admissible.
func TestCycleBudgetPastScoreboardRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := RequestFromJob(tinyJob(t, "CS", runner.Baseline()))
	req.Cfg.MaxCycles = 1 << 31
	_, err := c.SubmitJob(context.Background(), req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Body.Error, "2^31-cycle guard") {
		t.Errorf("MaxCycles 2^31: %v, want a 400 naming the 2^31-cycle guard", err)
	}
	req.Cfg.MaxCycles = 1<<31 - 1
	if _, err := req.Resolve(); err != nil {
		t.Errorf("MaxCycles 2^31-1 rejected: %v", err)
	}
}

// TestUnencodableResponseIs500: a value encoding/json refuses — a NaN that
// found its way into a result's metrics — used to go out as 200 with an
// empty body, the status line already written when Encode failed. It is a
// 500 carrying the error envelope, and the server keeps answering.
func TestUnencodableResponseIs500(t *testing.T) {
	s, c, _, id := primed(t, Config{Workers: 1})
	rec := s.lookup(id)
	rec.mu.Lock()
	rec.result.Metrics.AvgResidentCTAs = math.NaN()
	rec.mu.Unlock()

	_, err := c.JobStatus(context.Background(), id)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError ||
		!strings.Contains(ae.Body.Error, "encoding response") || !strings.Contains(ae.Body.Error, "NaN") {
		t.Fatalf("status of a record with a NaN metric: %v, want a 500 envelope naming the encode failure", err)
	}
	if err := c.Call(context.Background(), http.MethodGet, "/healthz", nil, nil); err != nil {
		t.Errorf("server after the 500: %v", err)
	}
}

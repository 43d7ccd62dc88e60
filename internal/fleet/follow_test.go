package fleet

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/trace"
)

// runAll pushes jobs through a coordinator client the way users do — an
// engine whose executor is client.Execute, every job in flight at once —
// and returns the batch with its aggregated failure (callable off the test
// goroutine: it reports, never fails the test).
func runAll(client *serve.Client, jobs ...*runner.Job) (*runner.Batch, error) {
	b := (&runner.Engine{Jobs: len(jobs), Exec: client.Execute}).Run(jobs)
	return b, b.Err()
}

// runOne is runAll for a single job's result.
func runOne(client *serve.Client, j *runner.Job) (*runner.Result, error) {
	b, err := runAll(client, j)
	if err != nil {
		return nil, err
	}
	return b.Results[0], nil
}

// countJobGets is a worker front that counts GET /v1/jobs/{id} into n.
func countJobGets(n *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if isJobGet(r) {
				n.Add(1)
			}
			next.ServeHTTP(rw, r)
		})
	}
}

// awaitEntered waits for a parked worker to report a job.
func awaitEntered(t *testing.T, entered <-chan *runner.Job) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no job reached the parked worker")
	}
}

// isJobGet / isJobEvents classify the two requests a dispatcher makes about
// a job it submitted.
func isJobGet(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/events")
}

func isJobEvents(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events")
}

// TestCoordinatorEngineCounts: a coordinator's engine is the one its jobs
// pass through, so its finereg_engine_* series are true — five dispatches
// are five executions, a repeat sweep coalesces onto the records and never
// reaches the engine, and a second coordinator over the same cache
// directory answers the sweep from the cache bracket without dispatching.
func TestCoordinatorEngineCounts(t *testing.T) {
	jobs := corpus(t)
	dir := t.TempDir()
	w := newWorker(t, "", nil)
	_, client := newCoordinator(t, CoordinatorConfig{CacheDir: dir}, w)

	for sweep, want := range []int64{5, 5} {
		if _, err := runAll(client, jobs...); err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		body := string(httpGet(t, client.Base+"/metrics"))
		if got := metricInt(t, body, "finereg_engine_jobs_executed_total"); got != want {
			t.Errorf("after sweep %d: finereg_engine_jobs_executed_total = %d, want %d", sweep, got, want)
		}
		if got := metricInt(t, body, "finereg_engine_inflight_simulations"); got != 0 {
			t.Errorf("after sweep %d: finereg_engine_inflight_simulations = %d at rest", sweep, got)
		}
	}

	_, second := newCoordinator(t, CoordinatorConfig{CacheDir: dir}, w)
	if _, err := runAll(second, jobs...); err != nil {
		t.Fatalf("second coordinator: %v", err)
	}
	body := string(httpGet(t, second.Base+"/metrics"))
	for name, want := range map[string]int64{
		"finereg_engine_cache_hits_total":    5,
		"finereg_engine_jobs_executed_total": 0,
		"finereg_fleet_dispatched_total":     0,
	} {
		if got := metricInt(t, body, name); got != want {
			t.Errorf("second coordinator over the same cache dir: %s = %d, want %d", name, got, want)
		}
	}
}

// TestFleetOneStatusFetchPerJob: the dispatcher learns completion from the
// worker's event stream and fetches the status once, for the result — it
// does not poll. One job is held inside the worker until the dispatcher is
// following it, so a poller would have asked about that job at least twice.
func TestFleetOneStatusFetchPerJob(t *testing.T) {
	var gets atomic.Int64
	entered := make(chan *runner.Job, 16)
	release := make(chan struct{})
	w := startWorker(t, workerOpts{
		exec:  parkExec(entered, release),
		front: countJobGets(&gets),
	})
	t.Cleanup(w.stop)
	coord, client := newCoordinator(t, CoordinatorConfig{}, w)

	jobs := corpus(t)
	done := make(chan error, 1)
	go func() {
		_, err := runAll(client, jobs...)
		done <- err
	}()
	awaitEntered(t, entered)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	dispatched := coord.Dispatcher().Stats().Dispatched
	if dispatched != int64(len(jobs)) || gets.Load() != dispatched {
		t.Errorf("%d GET /v1/jobs/{id} for %d dispatches of %d jobs, want one each", gets.Load(), dispatched, len(jobs))
	}
}

// TestFleetStreamEndRequeues: a draining worker closes its event streams
// before "finish". That is a failed attempt, not a completion: after
// DownAfter of them the job is requeued onto the survivor, and nothing is
// fetched from — let alone committed for — the worker that never finished.
func TestFleetStreamEndRequeues(t *testing.T) {
	var getsA atomic.Int64
	entered := make(chan *runner.Job, 16)
	release := make(chan struct{})
	wA := startWorker(t, workerOpts{
		exec:  parkExec(entered, release),
		front: countJobGets(&getsA),
	})
	wB := newWorker(t, "", nil)
	coord, client := newCoordinator(t, CoordinatorConfig{}, wA)

	job := tinyJob(t, "CS", runner.Baseline())
	direct := (&runner.Engine{}).Run([]*runner.Job{job})
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *runner.Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := runOne(client, job)
		got <- outcome{res, err}
	}()
	awaitEntered(t, entered)

	// The survivor joins once A holds the job (joined earlier, B could have
	// taken it whenever A ranked first but was full). Then drain A with the job still parked: the
	// stream the dispatcher follows ends there and then, and so does every
	// resubscription.
	if err := coord.AddWorker(wB.hs.URL); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		wA.srv.Shutdown(ctx) // returns once the parked job is released
	}()
	t.Cleanup(func() {
		close(release)
		<-drained
		wA.hs.Close()
	})

	out := <-got
	if out.err != nil {
		t.Fatalf("job across a draining worker: %v", out.err)
	}
	if !bytes.Equal(mustJSON(t, direct.Results[0]), mustJSON(t, out.res)) {
		t.Error("requeued job's result differs from a direct run")
	}
	if st := coord.Dispatcher().Stats(); st.Requeued == 0 {
		t.Errorf("stream ended without finish, yet nothing was requeued: %+v", st)
	}
	if n := wB.eng.Stats().Executed; n != 1 {
		t.Errorf("survivor executed %d jobs, want 1", n)
	}
	if n := getsA.Load(); n != 0 {
		t.Errorf("%d status fetches from the worker that never sent finish, want 0", n)
	}
}

// cutAfter lets n event writes through and fails the rest, so the SSE
// handler behind it gives up and the stream ends mid-job.
type cutAfter struct {
	http.ResponseWriter
	n int
}

func (c *cutAfter) Write(p []byte) (int, error) {
	if c.n--; c.n < 0 {
		return 0, http.ErrHandlerTimeout
	}
	return c.ResponseWriter.Write(p)
}

func (c *cutAfter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestFleetResubscribeCountsOnce: the dispatcher's first subscription is
// cut after three events, mid-job; the resubscription replays the record's
// history, and the dispatcher must relay only what it has not seen. The
// coordinator's sample-fed totals then equal the worker's — nothing counted
// twice, nothing lost. The job waits at its second sample until the
// resubscription arrives, so the cut always lands mid-run.
func TestFleetResubscribeCountsOnce(t *testing.T) {
	job := tinyJob(t, "LB", runner.FineRegDefault())
	direct := (&runner.Engine{}).Run([]*runner.Job{job})
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}

	var subscriptions atomic.Int64
	resubscribed := make(chan struct{})
	var once sync.Once
	w := startWorker(t, workerOpts{
		// Half a dozen samples: enough to cut between, few enough that the
		// record's progress window holds them all.
		progressEvery: direct.Results[0].Metrics.Cycles / 6,
		exec: func(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
			jc, samples := *j, 0
			jc.Cfg.Progress = func(ps trace.ProgressSample) {
				j.Cfg.Progress(ps)
				if samples++; samples == 2 {
					select {
					case <-resubscribed:
					case <-time.After(30 * time.Second):
					}
				}
			}
			return runner.Simulate(ctx, key, &jc)
		},
		front: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if isJobEvents(r) {
					if subscriptions.Add(1) == 1 {
						rw = &cutAfter{ResponseWriter: rw, n: 3}
					} else {
						once.Do(func() { close(resubscribed) })
					}
				}
				next.ServeHTTP(rw, r)
			})
		},
	})
	t.Cleanup(w.stop)
	_, client := newCoordinator(t, CoordinatorConfig{}, w)

	res, err := runOne(client, job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, direct.Results[0]), mustJSON(t, res)) {
		t.Error("result across a resubscription differs from a direct run")
	}
	if n := subscriptions.Load(); n < 2 {
		t.Fatalf("%d event subscriptions: the cut stream was never resubscribed", n)
	}
	workerBody := string(httpGet(t, w.hs.URL+"/metrics"))
	coordBody := string(httpGet(t, client.Base+"/metrics"))
	if dropped := metricInt(t, workerBody, "finereg_serve_sse_dropped_total"); dropped != 0 {
		t.Fatalf("worker dropped %d events to a lagging subscriber; the comparison below needs none", dropped)
	}
	for _, name := range []string{"finereg_sim_gpu_instructions_total", "finereg_sim_gpu_cycles_total"} {
		wv, cv := metricInt(t, workerBody, name), metricInt(t, coordBody, name)
		if wv == 0 || wv != cv {
			t.Errorf("%s: coordinator %d, worker %d — a replayed sample was relayed twice or a live one lost", name, cv, wv)
		}
	}
	if want := direct.Results[0].Metrics.Instructions; metricInt(t, coordBody, "finereg_sim_gpu_instructions_total") != want {
		t.Errorf("coordinator finereg_sim_gpu_instructions_total != the job's %d instructions", want)
	}
}

// TestRegisterWorkerBodyBounded: POST /v1/fleet/workers reads at most a
// few KiB — a URL needs no more — and answers an oversized body with 413
// and a malformed one with 400, as the serving layer's decodeBody does; a
// URL the dispatcher cannot speak to (not http or https) is a 400 too, not
// a node whose every job fails its transport.
func TestRegisterWorkerBodyBounded(t *testing.T) {
	coord, client := newCoordinator(t, CoordinatorConfig{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(client.Base+"/v1/fleet/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"url":"http://127.0.0.1:1/` + strings.Repeat("x", 1<<20) + `"}`); got != http.StatusRequestEntityTooLarge {
		t.Errorf("1 MiB registration body = HTTP %d, want 413", got)
	}
	if got := post(`{"url":`); got != http.StatusBadRequest {
		t.Errorf("malformed registration body = HTTP %d, want 400", got)
	}
	if got := post(`{"url":"ftp://127.0.0.1:1"}`); got != http.StatusBadRequest {
		t.Errorf("ftp:// worker registration = HTTP %d, want 400", got)
	}
	if got := post(`{"url":"http://127.0.0.1:1"}`); got != http.StatusNoContent {
		t.Errorf("well-formed registration = HTTP %d, want 204", got)
	}
	if nodes := coord.Dispatcher().NodeStatuses(); len(nodes) != 1 {
		t.Errorf("fleet has %d nodes after one good registration, want 1: %+v", len(nodes), nodes)
	}
}

// shedFront is a worker front that answers POST /v1/jobs with 429 whenever
// shed says so for the nth such request (counting from 1), and counts the
// sheds.
func shedFront(sheds *atomic.Int64, shed func(nth int64) bool) func(http.Handler) http.Handler {
	var posts atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && shed(posts.Add(1)) {
				sheds.Add(1)
				http.Error(rw, `{"error":"serve: admission queue full"}`, http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
}

// quickShedWait shortens the dispatcher's shed backoff on every node.
func quickShedWait(d *Dispatcher) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range d.nodes {
		n.client.ShedBackoff = 5 * time.Millisecond
	}
}

// TestFleetShedRequeuesWithoutDemoting: a 429 from a worker means its
// admission queue was full for a moment, not that it is gone. The shed task
// alone is requeued — onto another node when there is one, back onto the
// same node after the shed wait when there is not — and the worker stays
// up and the job completes.
func TestFleetShedRequeuesWithoutDemoting(t *testing.T) {
	t.Run("one worker", func(t *testing.T) {
		var sheds atomic.Int64
		w := startWorker(t, workerOpts{front: shedFront(&sheds, func(nth int64) bool { return nth == 1 })})
		t.Cleanup(w.stop)
		coord, client := newCoordinator(t, CoordinatorConfig{}, w)
		quickShedWait(coord.Dispatcher())

		if _, err := runOne(client, tinyJob(t, "CS", runner.Baseline())); err != nil {
			t.Fatalf("job across one shed from the only worker: %v", err)
		}
		if ns := coord.Dispatcher().NodeStatuses(); !ns[0].Alive {
			t.Error("one 429 took the only worker out of the fleet")
		}
		if st := coord.Dispatcher().Stats(); sheds.Load() != 1 || st.Requeued != 1 || st.Dispatched != 2 {
			t.Errorf("%d sheds, stats %+v; want one shed, one requeue, two dispatches", sheds.Load(), st)
		}
		if n := w.eng.Stats().Executed; n != 1 {
			t.Errorf("worker executed %d jobs, want 1", n)
		}
	})

	t.Run("two workers", func(t *testing.T) {
		var sheds atomic.Int64
		wA := startWorker(t, workerOpts{front: shedFront(&sheds, func(int64) bool { return true })})
		t.Cleanup(wA.stop)
		wB := newWorker(t, "", nil)
		coord, client := newCoordinator(t, CoordinatorConfig{}, wA)
		quickShedWait(coord.Dispatcher())

		// The worker that takes jobs joins once the one that sheds them all
		// has shed at least one (joined earlier, B could take every job
		// before A shed one).
		jobs := corpus(t)[:3]
		done := make(chan error, 1)
		go func() {
			_, err := runAll(client, jobs...)
			done <- err
		}()
		for deadline := time.Now().Add(30 * time.Second); sheds.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no submission reached the shedding worker")
			}
		}
		if err := coord.AddWorker(wB.hs.URL); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("sweep placed on a worker that sheds everything: %v", err)
		}
		for _, ns := range coord.Dispatcher().NodeStatuses() {
			if !ns.Alive {
				t.Errorf("worker %s marked down; shedding is busy, not lost", ns.URL)
			}
		}
		// Each shed is exactly one requeue, and nothing else is.
		if st := coord.Dispatcher().Stats(); st.Requeued != sheds.Load() {
			t.Errorf("%d sheds, stats %+v; want each shed requeued once and nothing else", sheds.Load(), st)
		}
		if a, b := wA.eng.Stats().Executed, wB.eng.Stats().Executed; a != 0 || b != int64(len(jobs)) {
			t.Errorf("executed %d on the shedding worker and %d on the other, want 0 and %d", a, b, len(jobs))
		}
	})
}

// TestFleetSkewedWorkerNeverCommits: a worker that keys jobs under another
// simulator fingerprint (an older binary) simulates another model. Its
// result must never be committed under the coordinator's key: the mismatch
// is the worker's fault, so it is demoted and the job goes elsewhere — or
// fails, when there is nowhere else.
func TestFleetSkewedWorkerNeverCommits(t *testing.T) {
	job := tinyJob(t, "CS", runner.Baseline())
	direct := (&runner.Engine{}).Run([]*runner.Job{job})
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}
	key := job.Key(runner.SimFingerprint)

	stale := newWorker(t, "", nil)
	stale.eng.Cache.Fingerprint = "finereg-sim-OLD"
	coord, client := newCoordinator(t, CoordinatorConfig{}, stale)

	if _, err := runOne(client, job); err == nil {
		t.Error("a fleet of one version-skewed worker returned a result")
	}
	if _, _, ok := coord.Cache().Get(key); ok {
		t.Fatal("the skewed worker's result was committed under the current key")
	}
	if ns := coord.Dispatcher().NodeStatuses(); ns[0].Alive {
		t.Error("the skewed worker is still in the fleet")
	}

	current := newWorker(t, "", nil)
	if err := coord.AddWorker(current.hs.URL); err != nil {
		t.Fatal(err)
	}
	res, err := runOne(client, job)
	if err != nil {
		t.Fatalf("job with a current worker in the fleet: %v", err)
	}
	if !bytes.Equal(mustJSON(t, direct.Results[0]), mustJSON(t, res)) {
		t.Error("result differs from a direct run")
	}
	if n := current.eng.Stats().Executed; n != 1 {
		t.Errorf("current worker executed %d jobs, want 1", n)
	}
	if cached, _, ok := coord.Cache().Get(key); !ok || !bytes.Equal(mustJSON(t, direct.Results[0]), mustJSON(t, cached)) {
		t.Error("the coordinator's cache does not hold the current model's result under the current key")
	}
}

// TestCoordinatorShutdownTwice: Shutdown is called from deferred paths, so
// a second call must be a no-op returning the first call's result, like
// the serve.Server.Shutdown it wraps.
func TestCoordinatorShutdownTwice(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	for call := 1; call <= 2; call++ {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown call %d: %v", call, err)
		}
	}
}

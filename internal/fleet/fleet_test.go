package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/serve"
)

// tinyJob mirrors the serve test corpus: a small but real simulation (2-SM
// machine, shrunken grid) so fleet tests drive the actual simulator.
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

// corpus is the serve e2e job set the fleet must reproduce byte for byte.
func corpus(t *testing.T) []*runner.Job {
	return []*runner.Job{
		tinyJob(t, "CS", runner.Baseline()),
		tinyJob(t, "CS", runner.VirtualThread()),
		tinyJob(t, "CS", runner.FineRegDefault()),
		tinyJob(t, "LB", runner.Baseline()),
		tinyJob(t, "LB", runner.FineRegDefault()),
	}
}

// testWorker is one worker node: its serve server, engine, and HTTP front.
type testWorker struct {
	srv *serve.Server
	hs  *httptest.Server
	eng *runner.Engine
}

// workerOpts vary a test worker: exec (nil = the local simulator) is its
// engine's executor, front (nil = none) wraps the HTTP handler the fleet
// talks to, progressEvery is its in-run sample period (0 = default), and
// workers its serve pool (0 = 2).
type workerOpts struct {
	exec          runner.Executor
	front         func(http.Handler) http.Handler
	progressEvery int64
	workers       int
}

// startWorker starts a worker with a disk-backed cache and leaves stopping
// it to the caller.
func startWorker(t *testing.T, o workerOpts) *testWorker {
	t.Helper()
	eng := &runner.Engine{Cache: runner.NewCache(t.TempDir()), Exec: o.exec}
	s := serve.New(serve.Config{Engine: eng, Workers: cmp.Or(o.workers, 2), ProgressEvery: o.progressEvery})
	var h http.Handler = s
	if o.front != nil {
		h = o.front(s)
	}
	return &testWorker{srv: s, hs: httptest.NewServer(h), eng: eng}
}

// stop closes the worker's listener and drains its server.
func (w *testWorker) stop() {
	w.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
}

// newWorker is startWorker stopped at test cleanup; coordURL != "" mounts
// the coordinator as the cache's remote tier.
func newWorker(t *testing.T, coordURL string, exec runner.Executor) *testWorker {
	t.Helper()
	w := startWorker(t, workerOpts{exec: exec})
	if coordURL != "" {
		w.eng.Cache.Remote = &CacheClient{Base: coordURL}
	}
	t.Cleanup(w.stop)
	return w
}

// newCoordinator starts a coordinator seeded with the given workers, as
// finereg-fleet -nodes seeds one (probe loop off; tests drive ProbeAll
// explicitly where liveness matters).
func newCoordinator(t *testing.T, cfg CoordinatorConfig, workers ...*testWorker) (*Coordinator, *serve.Client) {
	t.Helper()
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = -1
	}
	c := NewCoordinator(cfg)
	for _, w := range workers {
		if err := c.AddWorker(w.hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(c)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, &serve.Client{Base: hs.URL, ShedBackoff: 5 * time.Millisecond}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameResults compares two result sets byte for byte.
func assertSameResults(t *testing.T, jobs []*runner.Job, want, got *runner.Batch) {
	t.Helper()
	for i := range jobs {
		w := mustJSON(t, want.Results[i])
		g := mustJSON(t, got.Results[i])
		if !bytes.Equal(w, g) {
			t.Errorf("job %d (%s): fleet result differs from direct run\ndirect: %s\nfleet:  %s",
				i, jobs[i].Label, w, g)
		}
	}
}

// TestFleetByteIdenticalSweep is the tentpole acceptance test: the serve
// e2e corpus through a coordinator + two workers must be byte-identical
// to a direct engine run, with every simulation executed on a worker and
// a repeat sweep answered with zero re-simulations.
func TestFleetByteIdenticalSweep(t *testing.T) {
	jobs := corpus(t)
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	wA := newWorker(t, "", nil)
	wB := newWorker(t, "", nil)
	coord, client := newCoordinator(t, CoordinatorConfig{}, wA, wB)

	fleetRun, err := runAll(client, jobs...)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	assertSameResults(t, jobs, direct, fleetRun)

	execA := wA.eng.Stats().Executed
	execB := wB.eng.Stats().Executed
	if execA+execB != int64(len(jobs)) {
		t.Errorf("workers executed %d+%d simulations, want %d total", execA, execB, len(jobs))
	}
	if st := coord.Dispatcher().Stats(); st.Dispatched < int64(len(jobs)) {
		t.Errorf("dispatched %d, want >= %d", st.Dispatched, len(jobs))
	}

	// The coordinator simulates nothing, yet its /metrics carry fleet-wide
	// simulation totals: the sums of the progress samples its workers
	// forwarded. A forwarding subscription that falls more than a record's
	// progress window behind skips the pruned samples, and the worker counts
	// each as dropped; so the total is bounded by the sweep's own metrics
	// and equals them when no worker counted a drop.
	var wantInstr int64
	for _, r := range direct.Results {
		wantInstr += r.Metrics.Instructions
	}
	gotInstr := metricInt(t, string(httpGet(t, client.Base+"/metrics")), "finereg_sim_gpu_instructions_total")
	if gotInstr <= 0 || gotInstr > wantInstr {
		t.Errorf("coordinator finereg_sim_gpu_instructions_total = %d, want in (0, %d]", gotInstr, wantInstr)
	}
	var dropped int64
	for _, w := range []*testWorker{wA, wB} {
		dropped += metricInt(t, string(httpGet(t, w.hs.URL+"/metrics")), "finereg_serve_sse_dropped_total")
	}
	if dropped == 0 && gotInstr != wantInstr {
		t.Errorf("no forwarded sample was dropped, yet coordinator finereg_sim_gpu_instructions_total = %d, sweep metrics sum to %d", gotInstr, wantInstr)
	}

	// Warm repeat: same sweep again — answered by the coordinator
	// (coalesced records / shared cache), no new simulations anywhere.
	again, err := runAll(client, jobs...)
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	assertSameResults(t, jobs, direct, again)
	if a, b := wA.eng.Stats().Executed, wB.eng.Stats().Executed; a != execA || b != execB {
		t.Errorf("repeat sweep re-simulated: executed %d/%d -> %d/%d", execA, execB, a, b)
	}

	// Fleet membership is visible over the API.
	var nodes []NodeStatus
	if err := json.Unmarshal(httpGet(t, client.Base+"/v1/fleet/workers"), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || !nodes[0].Alive || !nodes[1].Alive {
		t.Errorf("fleet workers = %+v, want 2 alive nodes", nodes)
	}
	body := string(httpGet(t, client.Base+"/metrics"))
	for _, want := range []string{"finereg_fleet_nodes_alive 2", "finereg_fleet_node_up{node="} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
}

// TestFleetRemoteCacheTier: a cold worker whose cache mounts the
// coordinator as its remote tier must serve a sweep the fleet already
// computed entirely from remote hits — zero simulations — with the hit
// source visible in its metrics.
func TestFleetRemoteCacheTier(t *testing.T) {
	jobs := corpus(t)
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}

	wA := newWorker(t, "", nil)
	coord, client := newCoordinator(t, CoordinatorConfig{}, wA)
	if _, err := runAll(client, jobs...); err != nil {
		t.Fatalf("warming run: %v", err)
	}
	if got := coord.Cache().Stats(); got.Misses == 0 {
		t.Fatalf("coordinator cache saw no traffic: %+v", got)
	}

	// Cold node: empty local cache, coordinator as remote tier. Submit
	// the sweep directly to it, as a fleet worker would see it.
	coordURL := client.Base
	wCold := newWorker(t, coordURL, nil)
	coldClient := &serve.Client{Base: wCold.hs.URL}
	got, err := runAll(coldClient, jobs...)
	if err != nil {
		t.Fatalf("cold worker run: %v", err)
	}
	assertSameResults(t, jobs, direct, got)

	st := wCold.eng.Stats()
	if st.Executed != 0 {
		t.Errorf("cold worker executed %d simulations, want 0 (remote tier)", st.Executed)
	}
	if st.RemoteHits != int64(len(jobs)) {
		t.Errorf("cold worker remote hits = %d, want %d", st.RemoteHits, len(jobs))
	}
	cs := wCold.eng.Cache.Stats()
	if cs.RemoteHits != int64(len(jobs)) || cs.MemHits != 0 || cs.DiskHits != 0 {
		t.Errorf("cold worker cache stats = %+v, want all %d hits remote", cs, len(jobs))
	}

	body := string(httpGet(t, wCold.hs.URL+"/metrics"))
	if want := `finereg_cache_hits_total{source="remote"} 5`; !strings.Contains(body, want) {
		t.Errorf("cold worker metrics missing %q", want)
	}
	// The coordinator executes nothing, so its hit ratio must come from the
	// shared cache's own counters: the sweep missed once per job on
	// dispatch and hit once per job when the cold worker asked for it.
	ratio, err := strconv.ParseFloat(metricText(t, string(httpGet(t, coordURL+"/metrics")), "finereg_cache_hit_ratio"), 64)
	cst := coord.Cache().Stats()
	if want := float64(cst.Hits()) / float64(cst.Hits()+cst.Misses); err != nil || ratio <= 0 || math.Abs(ratio-want) > 1e-6 {
		t.Errorf("coordinator finereg_cache_hit_ratio = %v (%v), want hits/(hits+misses) of %+v", ratio, err, cst)
	}

	// Back-fill: the same sweep again is now local (mem), not remote.
	if _, err := runAll(coldClient, jobs...); err != nil {
		t.Fatal(err)
	}
	if cs2 := wCold.eng.Cache.Stats(); cs2.RemoteHits != cs.RemoteHits {
		t.Errorf("repeat on cold worker went remote again: %+v", cs2)
	}
}

// parkExec is a worker engine's executor that parks every job until
// release closes, then simulates it normally. entered reports each parked
// job.
func parkExec(entered chan<- *runner.Job, release <-chan struct{}) runner.Executor {
	return func(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
		entered <- j
		<-release
		return runner.Simulate(ctx, key, j)
	}
}

// splitByPrimary partitions candidate jobs by their rendezvous-primary
// node, generating grid-perturbed variants of the corpus until each node
// has at least want primaries.
func splitByPrimary(t *testing.T, urls []string, want int) map[string][]*runner.Job {
	t.Helper()
	out := map[string][]*runner.Job{}
	base := corpus(t)
	for i := 0; i < 64; i++ {
		j := base[i%len(base)]
		cand := *j
		cand.Grid = j.Grid + i/len(base)
		key := cand.Key(runner.SimFingerprint)
		primary := rendezvousRank(key, urls)[0]
		if len(out[primary]) < want {
			out[primary] = append(out[primary], &cand)
		}
		done := true
		for _, u := range urls {
			if len(out[u]) < want {
				done = false
			}
		}
		if done {
			return out
		}
	}
	t.Fatalf("could not find %d primary jobs per node over %v", want, urls)
	return nil
}

// TestFleetWorkStealing: with one dispatch slot per node and node A
// parked, a job whose first-ranked node is A must be placed on B, the next
// node in its order with a free slot, and completed there.
func TestFleetWorkStealing(t *testing.T) {
	entered := make(chan *runner.Job, 16)
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	wA := newWorker(t, "", parkExec(entered, release))
	wB := newWorker(t, "", nil)

	coord, client := newCoordinator(t, CoordinatorConfig{Slots: 1}, wA, wB)

	split := splitByPrimary(t, []string{wA.hs.URL, wB.hs.URL}, 2)
	jobs := append(append([]*runner.Job{}, split[wA.hs.URL]...), split[wB.hs.URL][0])

	resCh := make(chan error, 1)
	go func() {
		_, err := runAll(client, jobs...)
		resCh <- err
	}()

	// A's single slot parks on one A-primary job; its second A-primary
	// job can only finish if it is placed on B. Hold A parked until B has
	// executed both its own job and the one A was too full to take.
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no job reached worker A")
	}
	deadline := time.Now().Add(30 * time.Second)
	for coord.Dispatcher().Stats().Stolen == 0 || wB.eng.Stats().Executed < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no steal while A parked: stolen=%d, B executed %d",
				coord.Dispatcher().Stats().Stolen, wB.eng.Stats().Executed)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	released = true
	if err := <-resCh; err != nil {
		t.Fatalf("sweep with stealing failed: %v", err)
	}
	if execB := wB.eng.Stats().Executed; execB != 2 {
		t.Errorf("worker B executed %d jobs, want 2 (own + stolen)", execB)
	}
	if execA := wA.eng.Stats().Executed; execA != 1 {
		t.Errorf("worker A executed %d jobs, want 1 (the parked one)", execA)
	}
}

// TestDispatchHonorsSlots: a node takes at most Slots jobs at once. With two
// slots on one parked worker that could run all five jobs, exactly two enter
// and the rest wait in the coordinator; the fleet API and /metrics both show
// the two slots taken, and once released every result is byte-identical to a
// direct run.
func TestDispatchHonorsSlots(t *testing.T) {
	jobs := corpus(t)
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan *runner.Job, len(jobs))
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	w := startWorker(t, workerOpts{exec: parkExec(entered, release), workers: len(jobs)})
	t.Cleanup(w.stop)
	_, client := newCoordinator(t, CoordinatorConfig{Slots: 2}, w)

	type runOut struct {
		b   *runner.Batch
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		b, err := runAll(client, jobs...)
		resCh <- runOut{b, err}
	}()
	awaitEntered(t, entered)
	awaitEntered(t, entered)
	select {
	case j := <-entered:
		t.Fatalf("a third job (%s) entered a node with two slots", j.Label)
	case <-time.After(200 * time.Millisecond):
	}

	var nodes []NodeStatus
	if err := json.Unmarshal(httpGet(t, client.Base+"/v1/fleet/workers"), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Inflight != 2 {
		t.Errorf("fleet workers = %+v, want one node with inflight 2", nodes)
	}
	want := `finereg_fleet_node_inflight{node="` + w.hs.URL + `"} 2`
	if body := string(httpGet(t, client.Base+"/metrics")); !strings.Contains(body, want) {
		t.Errorf("coordinator metrics missing %q", want)
	}

	close(release)
	released = true
	out := <-resCh
	if out.err != nil {
		t.Fatalf("sweep through two slots: %v", out.err)
	}
	assertSameResults(t, jobs, direct, out.b)
}

// TestSlotWaitEndsWithContext: a dispatch waiting for a slot wakes when its
// own context ends. With the only slot held by a parked job, Execute under a
// 50 ms deadline returns context.DeadlineExceeded; were the context's end
// not broadcast to the waiters, it would sleep until a slot freed.
func TestSlotWaitEndsWithContext(t *testing.T) {
	entered := make(chan *runner.Job, 1)
	release := make(chan struct{})
	w := startWorker(t, workerOpts{exec: parkExec(entered, release)})
	t.Cleanup(w.stop)
	coord, client := newCoordinator(t, CoordinatorConfig{Slots: 1}, w)

	held := tinyJob(t, "CS", runner.Baseline())
	parked := make(chan error, 1)
	go func() {
		_, err := runOne(client, held)
		parked <- err
	}()
	awaitEntered(t, entered)
	// Un-park in the test body: the cleanup closes the coordinator's
	// listener first, and that waits on the parked job's stream.
	defer func() {
		close(release)
		if err := <-parked; err != nil {
			t.Errorf("the job holding the slot: %v", err)
		}
	}()

	job := tinyJob(t, "LB", runner.Baseline())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Dispatcher().Execute(ctx, job.Key(runner.SimFingerprint), job)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Execute with every slot held = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute still waiting for a slot 5 s past its 50 ms deadline")
	}
}

// TestCoordinatorSaturatesLateWorkers: a coordinator started with no nodes
// sizes its pool for none, so the workers that register afterwards must
// grow it — n nodes of one slot each run n jobs at once, where a pool
// fixed at startup (GOMAXPROCS) would leave nodes idle with jobs queued.
func TestCoordinatorSaturatesLateWorkers(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 1
	entered := make(chan *runner.Job, n)
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	coord, client := newCoordinator(t, CoordinatorConfig{Slots: 1})
	for range n {
		w := newWorker(t, "", parkExec(entered, release))
		if err := coord.AddWorker(w.hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	base := tinyJob(t, "CS", runner.Baseline())
	jobs := make([]*runner.Job, n)
	for i := range jobs {
		j := *base
		j.Grid += i
		jobs[i] = &j
	}
	resCh := make(chan error, 1)
	go func() {
		_, err := runAll(client, jobs...)
		resCh <- err
	}()

	timeout := time.After(30 * time.Second)
	for got := 0; got < n; got++ {
		select {
		case <-entered:
		case <-timeout:
			t.Fatalf("%d of %d jobs reached a worker; the rest queued behind a full coordinator pool", got, n)
		}
	}
	close(release)
	released = true
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
}

// TestSeedNodeNormalized: a seed joins as a self-registering worker does,
// through AddWorker's normalisation. A worker seeded with a trailing slash
// runs a job byte-identically to a direct run — kept verbatim, its jobs went
// to "//v1/jobs", which the worker's mux redirects and the client re-sends
// as a GET (HTTP 405) — and the same worker announcing itself without the
// slash stays one node.
func TestSeedNodeNormalized(t *testing.T) {
	job := tinyJob(t, "CS", runner.Baseline())
	direct := (&runner.Engine{}).Run([]*runner.Job{job})
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}
	w := newWorker(t, "", nil)
	coord, client := newCoordinator(t, CoordinatorConfig{})
	if err := coord.AddWorker(w.hs.URL + "/"); err != nil {
		t.Fatal(err)
	}
	res, err := runOne(client, job)
	if err != nil {
		t.Fatalf("job on a worker seeded as %s/: %v", w.hs.URL, err)
	}
	if !bytes.Equal(mustJSON(t, direct.Results[0]), mustJSON(t, res)) {
		t.Error("result differs from a direct run")
	}
	if err := coord.AddWorker(w.hs.URL); err != nil {
		t.Fatal(err)
	}
	if nodes := coord.Dispatcher().NodeStatuses(); len(nodes) != 1 || nodes[0].URL != w.hs.URL {
		t.Errorf("after the worker announced itself the fleet is %+v, want the one node %s", nodes, w.hs.URL)
	}
}

// TestFleetWorkerFailureRequeue is the failure-semantics acceptance test:
// a worker killed mid-job must have its in-flight jobs requeued onto the
// survivor, the sweep must still complete, and the results must stay
// byte-identical to a direct run.
func TestFleetWorkerFailureRequeue(t *testing.T) {
	entered := make(chan *runner.Job, 16)
	release := make(chan struct{})
	wA := startWorker(t, workerOpts{exec: parkExec(entered, release)})
	t.Cleanup(func() {
		close(release) // un-park before draining A
		wA.stop()
	})
	wB := newWorker(t, "", nil)

	coord, client := newCoordinator(t, CoordinatorConfig{Slots: 2, DownAfter: 3}, wA, wB)

	split := splitByPrimary(t, []string{wA.hs.URL, wB.hs.URL}, 2)
	jobs := append(append([]*runner.Job{}, split[wA.hs.URL]...), split[wB.hs.URL]...)
	direct := (&runner.Engine{}).Run(jobs)
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		b   *runner.Batch
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		b, err := runAll(client, jobs...)
		resCh <- runOut{b, err}
	}()

	// Wait until A holds a job mid-flight, then kill the node.
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no job reached worker A")
	}
	// Listener first: the dispatcher resubscribes the moment its stream
	// breaks, and a connection accepted between the two calls below would
	// hold Close forever — a dead node accepts nothing.
	wA.hs.Listener.Close()
	wA.hs.CloseClientConnections()
	wA.hs.Close()

	out := <-resCh
	if out.err != nil {
		t.Fatalf("sweep across worker failure: %v", out.err)
	}
	assertSameResults(t, jobs, direct, out.b)

	st := coord.Dispatcher().Stats()
	if st.Requeued == 0 {
		t.Error("worker death caused no requeues")
	}
	var aliveA, aliveB bool
	for _, ns := range coord.Dispatcher().NodeStatuses() {
		switch ns.URL {
		case wA.hs.URL:
			aliveA = ns.Alive
		case wB.hs.URL:
			aliveB = ns.Alive
		}
	}
	if aliveA {
		t.Error("dead worker A still marked alive")
	}
	if !aliveB {
		t.Error("surviving worker B marked down")
	}
	if execB := wB.eng.Stats().Executed; execB != int64(len(jobs)) {
		t.Errorf("survivor executed %d jobs, want all %d", execB, len(jobs))
	}
}

// TestFleetCacheProtocol covers the HTTP cache endpoints directly: round
// trip, miss, and malformed-key rejection.
func TestFleetCacheProtocol(t *testing.T) {
	wA := newWorker(t, "", nil)
	_, client := newCoordinator(t, CoordinatorConfig{}, wA)

	job := tinyJob(t, "CS", runner.Baseline())
	b := (&runner.Engine{}).Run([]*runner.Job{job})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	key := job.Key(runner.SimFingerprint)

	cc := &CacheClient{Base: client.Base}
	if _, ok := cc.Get(key); ok {
		t.Fatal("empty coordinator cache reported a hit")
	}
	cc.Put(key, b.Results[0])
	got, ok := cc.Get(key)
	if !ok {
		t.Fatal("round-tripped result not found")
	}
	if !bytes.Equal(mustJSON(t, b.Results[0]), mustJSON(t, got)) {
		t.Error("result changed across the cache protocol round trip")
	}

	if _, ok := cc.Get("not-a-key"); ok {
		t.Error("malformed key reported a hit")
	}
	if resp, err := httpGetResp(client.Base + "/v1/cache/zzzz"); err == nil {
		if resp != 400 {
			t.Errorf("malformed key GET = HTTP %d, want 400", resp)
		}
	}

	// The fleet's JSON routes answer through the service's one writer: a
	// single line with its length, like every /v1/jobs body.
	for _, path := range []string{"/v1/cache/" + key, "/v1/fleet/workers"} {
		resp, err := http.Get(client.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.ContentLength != int64(len(raw)) || !json.Valid(raw) ||
			bytes.IndexByte(raw, '\n') != len(raw)-1 || bytes.IndexByte(raw, '\t') >= 0 {
			t.Errorf("GET %s: HTTP %d, Content-Length %d, body %q; want one line of JSON with its length",
				path, resp.StatusCode, resp.ContentLength, raw)
		}
	}
}

// metricInt returns the value of the unlabelled integer series name in a
// /metrics body.
func metricInt(t *testing.T, body, name string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(metricText(t, body, name), 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return n
}

// metricText returns the unparsed value of the unlabelled series name.
func metricText(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics lack %s", name)
	return ""
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := httptestGet(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finereg"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/workload"
)

// serve-mix drives a real serve.Server over loopback HTTP, closed loop, from
// as many clients as the host has CPUs. It is the only workload where the
// service layers (serve, runner, stats, the ingestion front door) do
// measurable work and the simulator is the minority.
//
// A round is a seeded interleaving of four kinds of job:
//
//	warm    resubmits of a primed set: answered at admission, no simulation
//	cold    a 2-SM simulation the server has never seen (unique key, the
//	        same work every round)
//	ingest  a unique user program: assembled, analyzed, simulated
//	reject  malformed source: must come back 400 with a line and column

type opClass uint8

const (
	opWarm opClass = iota
	opCold
	opIngest
	opReject
	numClasses
)

var classNames = [numClasses]string{"warm", "cold", "ingest", "reject"}

// mixSize is a round's job counts by class.
type mixSize [numClasses]int

func (m mixSize) total() int { return m[opWarm] + m[opCold] + m[opIngest] + m[opReject] }

var (
	fullMix  = mixSize{opWarm: 800, opCold: 4, opIngest: 32, opReject: 4}
	smokeMix = mixSize{opWarm: 72, opCold: 2, opIngest: 4, opReject: 2}
)

// coldBenches are the cold jobs' kernels: two Type-S, two Type-R, compute-
// and memory-bound, all under FineReg so the policy code is on the path.
var coldBenches = []string{"CS", "LB", "BF", "LI"}

const (
	warmSMs, warmGrid = 1, 8
	coldSMs           = 2
)

// op is one scheduled job: its class and which item of the class.
type op struct {
	class opClass
	item  int
}

// schedule returns round r's job order: a pure function of seed and round.
func schedule(seed int64, round int, mix mixSize, warmItems int) []op {
	ops := make([]op, 0, mix.total())
	for i := 0; i < mix[opWarm]; i++ {
		ops = append(ops, op{opWarm, i % warmItems})
	}
	for c := opCold; c < numClasses; c++ {
		for i := 0; i < mix[c]; i++ {
			ops = append(ops, op{c, i})
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// variant is one seeded mutation of the ingest program.
type variant struct{ trip, regs, grid int }

// ingestVariants returns n program mutations: loop trip 4–16, register
// allocation 12–20, grid 8–32 CTAs. The set is the same for every seed, so
// a round's simulated work does not depend on the seed; the seed decides
// which job carries which mutation.
func ingestVariants(seed int64, n int) []variant {
	vs := make([]variant, n)
	for i := range vs {
		vs[i] = variant{trip: 4 + i*5%13, regs: 12 + i*7%9, grid: 8 + i*11%25}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5a17))
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// ingestSource renders the user program (the shape of examples/saxpy.sasm,
// kept here so the benchmark reads no file outside its directory). The
// nonce comment changes the source text, hence the job key, and nothing
// else.
func ingestSource(v variant, nonce string) string {
	return fmt.Sprintf(`; saxpy strip, benchmark ingest job %s
.kernel saxpy
.regs %d
.warps 4
.shmem 0
.grid %d

  MOV R0, #0
  MOV R1, #%d
  MOV R2, #2
loop:
  LDG R3, [R0] pattern=coalesced region=1 footprint=8388608
  LDG R4, [R0] pattern=coalesced region=2 footprint=8388608
  FFMA R5, R2, R3, R4
  STG [R0], R5 region=15
  IADD R0, R0, #1
  ISETP R6, R0, R1
  @R6 BRA loop trip=%d
  EXIT
`, nonce, v.regs, v.grid, v.trip, v.trip)
}

// rejectSources are malformed programs; each must be refused with a
// position.
var rejectSources = []string{
	".kernel bad\n.regs 8\n  MOV R0, #0\n  FROB R1, R0\n  EXIT\n",
	".kernel bad\n.regs 8\n  MOV R0, #0\n  IADD R1, R0, R999\n  EXIT\n",
	".kernel bad\n.bogus 8\n  MOV R0, #0\n  EXIT\n",
	".kernel bad\n.regs 8\n  LDG R3, [R0] pattern=zigzag\n  EXIT\n",
}

// policy specs of the serve-mix jobs.
var (
	specBaseline = runner.PolicySpec{Kind: "baseline"}
	specFineReg  = runner.PolicySpec{Kind: "finereg-default"}
)

// mixClient is one closed-loop client with its own connection pool.
type mixClient struct {
	sc   *serve.Client
	http *http.Client
}

// serveEnv is what serve-mix set-up builds.
type serveEnv struct {
	dir      string
	engine   *runner.Engine
	srv      *serve.Server
	hs       *httptest.Server
	clients  []*mixClient
	mix      mixSize
	smoke    bool
	seed     int64
	warm     []serve.JobRequest
	want     [][]byte // priming result bytes per warm item
	cold     []kernels.Profile
	variants []variant

	mu    sync.Mutex
	first map[string][]byte // first result bytes per cold/ingest item
}

// startServer wraps serve.New the way every server in this file is built:
// as many workers as CPUs, and limits raised so configuration never evicts
// a record or sheds a job. (Bounded retention would steady peak_rss_mb, but
// a record evicted between a coalesced submit and the status fetch answers
// 404, and a workload may not contain operations that fail.)
func startServer(cache *runner.Cache) (*runner.Engine, *serve.Server, *httptest.Server) {
	eng := &runner.Engine{Cache: cache}
	srv := serve.New(serve.Config{Engine: eng, Workers: runtime.NumCPU(), QueueCap: 1 << 16, MaxRecords: 1 << 22})
	return eng, srv, httptest.NewServer(srv)
}

func stopServer(srv *serve.Server, hs *httptest.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // a drain error means jobs were interrupted; the run is over either way
	hs.Close()
}

func newClients(base string, n int) []*mixClient {
	cs := make([]*mixClient, n)
	for i := range cs {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		cs[i] = &mixClient{sc: &serve.Client{Base: base, HTTP: hc}, http: hc}
	}
	return cs
}

func closeClients(cs []*mixClient) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// newServeEnv is the serve-mix set-up: cache directory, engine, server,
// clients, the job templates, and priming of the warm set.
func newServeEnv(o options) (*serveEnv, error) {
	mix := fullMix
	if o.smoke {
		mix = smokeMix
	}
	dir, err := os.MkdirTemp(o.outDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, mix: mix, smoke: o.smoke, seed: o.seed, first: map[string][]byte{}}
	env.engine, env.srv, env.hs = startServer(runner.NewCache(dir))
	env.clients = newClients(env.hs.URL, runtime.NumCPU())

	for _, b := range finereg.Benchmarks() {
		for _, spec := range []runner.PolicySpec{specBaseline, specFineReg} {
			env.warm = append(env.warm, serve.JobRequest{Bench: b, SMs: warmSMs, Grid: warmGrid, Policy: spec})
		}
	}
	for _, b := range coldBenches[:mix[opCold]] {
		prof, err := finereg.BenchmarkProfile(b)
		if err != nil {
			env.close()
			return nil, err
		}
		env.cold = append(env.cold, prof)
	}
	env.variants = ingestVariants(o.seed, mix[opIngest])

	// Prime: every warm job runs once; its result bytes are what every
	// later resubmit must return.
	env.want = make([][]byte, len(env.warm))
	errs := make([]error, len(env.warm))
	env.drive(len(env.warm), func(c *mixClient, i int) {
		var r opResult
		c.runJob(env.warm[i], nil, 0, 0, &r)
		env.want[i], errs[i] = r.result, r.err
	})
	// Warm-up: one cold and one ingest job per client, so the policy code,
	// the assembler and the cache directory fan-out are exercised before
	// the first timed round. It also makes set-up mostly simulation, which
	// repeats far better than 40 ms of connection and first-touch costs.
	warmUp := make([]error, len(env.clients))
	env.drive(len(warmUp), func(c *mixClient, i int) {
		var r opResult
		c.runJob(env.coldRequest(i%len(env.cold), fmt.Sprint("warm-up", i)), nil, 0, 0, &r)
		if r.err == nil {
			c.runJob(env.ingestRequest(i%len(env.variants), fmt.Sprint("warm-up", i)), nil, 0, 0, &r)
		}
		warmUp[i] = r.err
	})
	for _, err := range append(errs, warmUp...) {
		if err != nil {
			env.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	return env, nil
}

// drive hands the indices 0..n-1 to the clients, closed loop: a client
// takes the next index when its previous job is done.
func (e *serveEnv) drive(n int, job func(c *mixClient, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(c, i)
			}
		}(c)
	}
	wg.Wait()
}

func (e *serveEnv) close() {
	stopServer(e.srv, e.hs)
	closeClients(e.clients)
	os.RemoveAll(e.dir)
}

// coldSMCount shrinks the cold machine under -smoke.
func (e *serveEnv) coldSMCount() int {
	if e.smoke {
		return smokeSMs
	}
	return coldSMs
}

// coldRequest is cold item i tagged for one round: the exact-form profile
// with a Name no earlier job used, so the key is new and the work is not.
func (e *serveEnv) coldRequest(i int, tag string) serve.JobRequest {
	prof := e.cold[i]
	prof.Name += " #" + tag
	return serve.JobRequest{Profile: &prof, SMs: e.coldSMCount(), Policy: specFineReg}
}

func (e *serveEnv) ingestRequest(i int, tag string) serve.JobRequest {
	return serve.JobRequest{
		Programs: []workload.Program{{Source: ingestSource(e.variants[i], tag)}},
		SMs:      e.coldSMCount(),
		Policy:   specFineReg,
	}
}

// opResult is one job's measurements.
type opResult struct {
	latency     time.Duration
	executed    bool // the server simulated it (has queue/run timestamps)
	queueWaitMS float64
	runMS       float64
	metrics     *finereg.Metrics
	result      []byte // JSON of the returned runner.Result
	err         error
}

// runJob is one job as a client sees it: submit, wait on the event stream
// unless the job was already done, fetch and decode the result.
func (c *mixClient) runJob(req serve.JobRequest, log *spanLog, reqID, round int32, r *opResult) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	root := log.reserve("job", -1, reqID, round, t0)
	defer func() {
		end := time.Now()
		r.latency = end.Sub(t0)
		log.finish(root, end)
	}()

	sub, err := c.sc.SubmitJob(ctx, req)
	t1 := time.Now()
	log.add("serve.submit", root, reqID, round, t0, t1)
	if err != nil {
		r.err = err
		return
	}
	if sub.State != "done" && sub.State != "failed" {
		err := c.sc.StreamEvents(ctx, sub.ID, func(ev serve.Event) bool { return ev.Kind != "finish" })
		t2 := time.Now()
		log.add("serve.wait", root, reqID, round, t1, t2)
		t1 = t2
		if err != nil {
			r.err = err
			return
		}
	}
	st, err := c.sc.JobStatus(ctx, sub.ID)
	log.add("serve.fetch", root, reqID, round, t1, time.Now())
	switch {
	case err != nil:
		r.err = err
	case st.State != "done" || st.Result == nil || st.Result.Metrics == nil:
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	default:
		r.metrics = st.Result.Metrics
		r.result, r.err = json.Marshal(st.Result)
		if !sub.Coalesced && st.StartedAtMS > 0 {
			r.executed = true
			r.queueWaitMS = float64(st.StartedAtMS - st.QueuedAtMS)
			r.runMS = float64(st.FinishedAtMS - st.StartedAtMS)
		}
	}
}

// runReject posts a malformed program with plain net/http and checks the
// refusal: 400 with a line and a column.
func (c *mixClient) runReject(source string, log *spanLog, reqID, round int32, r *opResult) {
	body, err := json.Marshal(serve.JobRequest{Programs: []workload.Program{{Source: source}}, SMs: warmSMs, Policy: specBaseline})
	if err != nil {
		r.err = err
		return
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.sc.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	r.latency = end.Sub(t0)
	log.add("serve.reject", -1, reqID, round, t0, end)
	if err != nil {
		r.err = err
		return
	}
	var refusal struct {
		Error     string `json:"error"`
		Line, Col int
	}
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &refusal) != nil || refusal.Line < 1 || refusal.Col < 1 {
		r.err = fmt.Errorf("malformed program answered HTTP %d %s, want 400 with line and col", resp.StatusCode, bytes.TrimSpace(raw))
	}
}

// sameAsFirst checks a cold or ingest result against the first one seen
// for the same item: the work is identical, so the bytes must be.
func (e *serveEnv) sameAsFirst(key string, result []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if first, ok := e.first[key]; ok {
		return bytes.Equal(first, result)
	}
	e.first[key] = result
	return true
}

// mixPhase is the raw result of one timed serve-mix phase.
type mixPhase struct {
	roundWall []float64
	latMS     [numClasses][][]float64 // [class][round] latencies
	allMS     [][]float64             // [round] every job's latency
	cycles    []float64               // simulated cycles per round
	executed  []*finereg.Metrics      // results of round 0's executed jobs
	queueMS   []float64
	runMS     []float64
	mem       memCounters
	lastCold  []*finereg.Metrics // last round's cold results, by item
}

func (p *mixPhase) rounds() int { return len(p.roundWall) }

// phase runs whole rounds, closed loop, until the budget is spent (same
// rule as the sim-* phases). roundBase keeps job tags unique across phases.
func (e *serveEnv) phase(budget time.Duration, fixedRounds, roundBase int, log *spanLog, out *outcome) mixPhase {
	var ph mixPhase
	ph.lastCold = make([]*finereg.Metrics, len(e.cold))
	before := readMemCounters()
	start := time.Now()
	var reqSeq atomic.Int32
	for r := 0; anotherRound(ph.roundWall, start, budget, fixedRounds); r++ {
		round := roundBase + r
		ops := schedule(e.seed, round, e.mix, len(e.warm))
		results := make([]opResult, len(ops))
		tag := fmt.Sprintf("%d.%d", e.seed, round)
		roundStart := time.Now()
		e.drive(len(ops), func(c *mixClient, i int) {
			o, res := ops[i], &results[i]
			id := reqSeq.Add(1)
			switch o.class {
			case opWarm:
				c.runJob(e.warm[o.item], log, id, int32(r), res)
				if res.err == nil && !bytes.Equal(res.result, e.want[o.item]) {
					res.err = fmt.Errorf("warm %s result differs from its priming result", e.warm[o.item].Bench)
				}
			case opCold:
				c.runJob(e.coldRequest(o.item, tag), log, id, int32(r), res)
				if res.err == nil && !e.sameAsFirst(fmt.Sprint("cold", o.item), res.result) {
					res.err = fmt.Errorf("cold %s result differs from an earlier round's", e.cold[o.item].Abbrev)
				}
			case opIngest:
				c.runJob(e.ingestRequest(o.item, tag), log, id, int32(r), res)
				if res.err == nil && !e.sameAsFirst(fmt.Sprint("ingest", o.item), res.result) {
					res.err = fmt.Errorf("ingest %d result differs from an earlier round's", o.item)
				}
			case opReject:
				c.runReject(rejectSources[o.item%len(rejectSources)], log, id, int32(r), res)
			}
		})
		ph.roundWall = append(ph.roundWall, time.Since(roundStart).Seconds())

		var all []float64
		var byClass [numClasses][]float64
		var cycles float64
		for i := range results {
			res, o := &results[i], ops[i]
			out.attempted++
			if res.err != nil {
				out.failed++
				if out.failed <= 5 {
					out.check(classNames[o.class]+" job", false, "round %d: %v", round, res.err)
				}
				continue
			}
			ms := float64(res.latency.Nanoseconds()) / 1e6
			all = append(all, ms)
			byClass[o.class] = append(byClass[o.class], ms)
			if o.class == opCold || o.class == opIngest {
				cycles += float64(res.metrics.Cycles)
				if r == 0 {
					ph.executed = append(ph.executed, res.metrics)
				}
				if res.executed {
					ph.queueMS = append(ph.queueMS, res.queueWaitMS)
					ph.runMS = append(ph.runMS, res.runMS)
				}
			}
			if o.class == opCold {
				ph.lastCold[o.item] = res.metrics
			}
		}
		ph.allMS = append(ph.allMS, all)
		for c := range byClass {
			ph.latMS[c] = append(ph.latMS[c], byClass[c])
		}
		ph.cycles = append(ph.cycles, cycles)
	}
	ph.mem = readMemCounters().since(before)
	return ph
}

// perRound maps each round's samples through f.
func perRound(rounds [][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func p95(v []float64) float64 { return percentile(v, 0.95) }

// bestRound is the serve-mix estimator: the best round once the luckiest
// 5% are set aside. A cell's best time is a hard floor (the same
// instructions every time); a round's is not (its four cold jobs can land on
// idle workers), so the extreme round repeats less well than the one just
// behind it.
func bestRound(series []float64, higher bool) estimate {
	return bestOfTrimmed(series, higher, len(series)/20)
}

func bestMetric(series []float64, higher bool) metricValue {
	est := bestRound(series, higher)
	return metricValue{Value: est.Best, Rounds: &est}
}

// headline fills the end-to-end metrics: each statistic is computed per
// round and the best round is reported, spread beside it.
func (e *serveEnv) headline(ph *mixPhase, out *outcome) {
	n := float64(e.mix.total())
	kcps := make([]float64, ph.rounds())
	jps := make([]float64, ph.rounds())
	for r, wall := range ph.roundWall {
		kcps[r] = ph.cycles[r] / 1e3 / wall
		jps[r] = n / wall
	}
	out.e2e["sim_kcycles_per_s"] = bestMetric(kcps, true)
	out.e2e["jobs_per_s"] = bestMetric(jps, true)
	out.e2e["job_p50_ms"] = bestMetric(perRound(ph.allMS, median), false)
	out.e2e["cold_p50_ms"] = bestMetric(perRound(ph.latMS[opCold], median), false)
	out.e2e["alloc_kb_per_kcycle"] = metricValue{Value: safeDiv(float64(ph.mem.allocBytes)/1024, sum(ph.cycles)/1e3)}
}

// verifyAgainstDirect checks the service's cold results against the same
// simulations run directly through the facade.
func (e *serveEnv) verifyAgainstDirect(ph *mixPhase, out *outcome) {
	for i, prof := range e.cold {
		got := ph.lastCold[i]
		if got == nil {
			continue // the job itself already failed and was counted
		}
		out.attempted++
		sms := e.coldSMCount()
		grid := max(int(float64(prof.GridCTAs)*float64(sms)/16+0.5), 1)
		want, err := finereg.RunBenchmark(finereg.ScaledConfig(sms), prof.Abbrev, grid, finereg.FineReg())
		if err != nil {
			out.failed++
			out.check("direct "+prof.Abbrev, false, "%v", err)
			continue
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			out.failed++
			out.check("service equals direct "+prof.Abbrev, false, "service %s\ndirect  %s", b, a)
		}
	}
}

func (e *serveEnv) digest(ph *mixPhase) string {
	var parts []string
	for _, w := range e.want {
		parts = append(parts, string(w))
	}
	for _, m := range ph.lastCold {
		b, _ := json.Marshal(m)
		parts = append(parts, string(b))
	}
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:])
}

func runServeMix(o options) (*outcome, error) {
	out := &outcome{e2e: map[string]metricValue{}, layer: map[string]float64{}}
	var env *serveEnv
	var err error
	out.setupSeconds, err = repeatSetup(o.smoke, func() (err error) {
		env, err = newServeEnv(o)
		return err
	}, func() { env.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	fixed := 0
	if o.smoke {
		fixed = 2
	}
	if !o.trace {
		ph := env.phase(budget, fixed, 0, nil, out)
		out.rounds = ph.rounds()
		env.verifyAgainstDirect(&ph, out)
		out.simDigest = env.digest(&ph)
		out.check("every job answered correctly", out.failed == 0, "%d failed ops", out.failed)
		env.headline(&ph, out)
		return out, nil
	}

	log := newSpanLog()
	var traced mixPhase
	shares, totalNs, err := profile(out, func() { traced = env.phase(budget*7/10, fixed, 0, log, out) })
	if err != nil {
		return nil, err
	}
	ref := env.phase(budget*3/10, fixed, traced.rounds(), nil, out)
	out.rounds = traced.rounds()
	env.verifyAgainstDirect(&traced, out)
	out.simDigest = env.digest(&traced)

	workCounts(out.layer, traced.executed, shares, float64(totalNs)/float64(traced.rounds()))
	runtimeCounters(out.layer, traced.mem, sum(traced.cycles))

	summary, err := writeTrace(o, log, shares, totalNs,
		"a job span's self time is client work between calls")
	if err != nil {
		return nil, err
	}
	out.layer["serve.submit_ms"] = meanMS(summary, "serve.submit")
	out.layer["serve.wait_ms"] = meanMS(summary, "serve.wait")
	out.layer["serve.fetch_ms"] = meanMS(summary, "serve.fetch")
	out.layer["serve.reject_ms"] = meanMS(summary, "serve.reject")
	out.layer["serve.queue_wait_ms"] = mean(traced.queueMS)
	out.layer["serve.run_ms"] = mean(traced.runMS)
	out.layer["serve.warm_p50_ms"] = bestRound(perRound(traced.latMS[opWarm], median), false).Best
	out.layer["serve.warm_p95_ms"] = bestRound(perRound(traced.latMS[opWarm], p95), false).Best
	out.layer["serve.cold_p50_ms"] = bestRound(perRound(traced.latMS[opCold], median), false).Best
	out.layer["serve.ingest_p50_ms"] = bestRound(perRound(traced.latMS[opIngest], median), false).Best
	out.layer["bench.trace_overhead_ratio"] = safeDiv(bestRound(traced.roundWall, false).Best, bestRound(ref.roundWall, false).Best)

	if err := env.serviceCounters(out.layer); err != nil {
		return nil, err
	}
	if err := env.serveMicro(o, out); err != nil {
		return nil, err
	}
	out.check("every job answered correctly", out.failed == 0, "%d failed ops", out.failed)

	return out, nil
}

// serviceCounters reads what the service says about itself: /metrics for
// admission, Engine.Stats for execution.
func (e *serveEnv) serviceCounters(layer map[string]float64) error {
	resp, err := e.clients[0].http.Get(e.hs.URL + "/metrics")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 && !strings.HasPrefix(name, "#") {
			series[name] = v
		}
	}
	layer["serve.coalesced_ratio"] = safeDiv(series["finereg_serve_coalesced_total"], series["finereg_serve_submissions_total"])
	layer["serve.shed_total"] = series["finereg_serve_shed_total"]
	st := e.engine.Stats()
	layer["runner.executed"] = float64(st.Executed)
	layer["runner.cache_hit_ratio"] = safeDiv(float64(st.CacheHits), float64(st.CacheHits+st.Executed))
	return nil
}

package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"finereg/internal/runner"
	"finereg/internal/serve/metrics"
	"finereg/internal/trace"
)

// TestSSEProgressStream: with a short sample period, an executing job's
// event stream carries a progress series — monotone cycles, CTA counts
// against the grid — and the samples surface in the fleet /metrics.
func TestSSEProgressStream(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, ProgressEvery: 64})
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

	var progress []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload: %v", err)
		}
		if ev.Kind == eventProgress {
			progress = append(progress, ev)
		}
	}
	if len(progress) < 2 {
		t.Fatalf("got %d progress events, want a periodic series plus the final sample", len(progress))
	}
	// A lagging subscriber may miss samples (drop-on-lag, including the
	// final one), so the assertions are about what was received: a monotone
	// series with consistent CTA accounting, not a complete one.
	prevCycle, prevRetired := int64(-1), int64(-1)
	for i, ev := range progress {
		if ev.Cycle <= prevCycle {
			t.Fatalf("progress %d cycle %d not after %d", i, ev.Cycle, prevCycle)
		}
		prevCycle = ev.Cycle
		if ev.State != stateRunning || ev.Job != id {
			t.Fatalf("progress %d mislabeled: state=%q job=%q", i, ev.State, ev.Job)
		}
		if ev.GridCTAs <= 0 {
			t.Fatalf("progress %d has no grid size", i)
		}
		if ev.CTAsRetired < prevRetired || ev.CTAsRetired > ev.CTAsLaunched || ev.CTAsLaunched > ev.GridCTAs {
			t.Fatalf("progress %d CTA accounting inconsistent: %d retired (prev %d) / %d launched / %d grid",
				i, ev.CTAsRetired, prevRetired, ev.CTAsLaunched, ev.GridCTAs)
		}
		prevRetired = ev.CTAsRetired
	}

	if got := s.mSamples.Value(); got < int64(len(progress)) {
		t.Errorf("progress-sample counter %d < %d streamed samples", got, len(progress))
	}

	mresp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"finereg_sim_cycles_per_sec",
		"finereg_sim_gpu_cycles_total",
		"finereg_sim_gpu_instructions_total",
		"finereg_sim_sm_cta_launches_total",
		"finereg_serve_progress_samples_total",
		"finereg_serve_sse_dropped_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	// The run completed, so the aggregate simulated-cycle counter must be
	// past the final sample's cycle and the live rate back to zero.
	if !strings.Contains(body, "finereg_sim_cycles_per_sec 0") {
		t.Error("live rate gauge not cleared after the run finished")
	}
}

// TestProgressDisabled: a negative ProgressEvery turns server-side
// sampling off — the stream is pure lifecycle.
func TestProgressDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, ProgressEvery: -1})
	sub, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "CS", runner.Baseline()))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/v1/jobs/" + sub.Jobs[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: "+eventProgress) {
			t.Fatal("progress event streamed with sampling disabled")
		}
	}
}

// TestRecordProgressBounds exercises the record-level progress machinery
// directly: bounded replay history, monotone sequence numbers, drop
// accounting for lagging subscribers, and the terminal-state guard.
func TestRecordProgressBounds(t *testing.T) {
	reg := metrics.NewRegistry()
	dropped := reg.NewCounter("drops", "")
	rec := newRecord("j1", "k1", tinyJob(t, "CS", runner.Baseline()))
	rec.dropped = dropped
	rec.submitted()
	rec.start()

	// A subscriber that never drains: everything past its buffer drops.
	_, _, cancel := rec.subscribe()
	defer cancel()

	const n = subBuffer + progressKeep + 8
	for i := 1; i <= n; i++ {
		rec.progress(trace.ProgressSample{Cycle: int64(i * 100)})
	}

	rec.mu.Lock()
	var kept []Event
	var lifecycle int
	for _, ev := range rec.events {
		if ev.Kind == eventProgress {
			kept = append(kept, ev)
		} else {
			lifecycle++
		}
	}
	seq := rec.seq
	rec.mu.Unlock()

	if len(kept) != progressKeep {
		t.Errorf("retained %d progress events, want %d", len(kept), progressKeep)
	}
	if lifecycle != 2 {
		t.Errorf("pruning touched lifecycle events: %d retained, want 2", lifecycle)
	}
	// The retained window is the most recent samples, in order, and seq
	// keeps counting across pruned history.
	for i := 1; i < len(kept); i++ {
		if kept[i].Seq <= kept[i-1].Seq || kept[i].Cycle <= kept[i-1].Cycle {
			t.Fatalf("retained window out of order at %d: %+v then %+v", i, kept[i-1], kept[i])
		}
	}
	if want := kept[len(kept)-1].Cycle; want != int64(n*100) {
		t.Errorf("newest retained sample at cycle %d, want %d", want, n*100)
	}
	if seq != int64(2+n) {
		t.Errorf("seq %d after 2 lifecycle + %d progress events, want %d", seq, n, 2+n)
	}

	// The subscriber joined after submit/start (those arrived via replay,
	// not the channel), so its buffer held the first subBuffer live samples
	// and every later one was dropped and counted.
	if got, want := dropped.Value(), int64(n-subBuffer); got != want {
		t.Errorf("dropped counter %d, want %d", got, want)
	}

	// After the terminal transition, late samples are ignored: finish stays
	// the last event.
	rec.finish(nil, nil, false)
	rec.progress(trace.ProgressSample{Cycle: 1 << 30})
	rec.mu.Lock()
	lastKind := rec.events[len(rec.events)-1].Kind
	rec.mu.Unlock()
	if lastKind != eventFinish {
		t.Errorf("event after finish: stream ends with %q", lastKind)
	}
}

// metricInt returns the value of the unlabelled integer series name in a
// /metrics body.
func metricInt(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics lack %s", name)
	return 0
}

// TestProgressFeedsSimTotals: the finereg_sim_<op>_total counters are the
// sums of the executed jobs' progress samples, so after N distinct cold
// jobs they equal the sums of those jobs' Metrics — under two concurrent
// workers — and a warm resubmit, which simulates nothing, moves nothing.
func TestProgressFeedsSimTotals(t *testing.T) {
	jobs := []*runner.Job{
		tinyJob(t, "CS", runner.Baseline()),
		tinyJob(t, "CS", runner.FineRegDefault()),
		tinyJob(t, "LB", runner.FineRegDefault()),
	}
	_, c := newTestServer(t, Config{Workers: 2, ProgressEvery: 256})
	b := runRemote(c, jobs...)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	var cycles, instr, spilled int64
	for _, r := range b.Results {
		cycles += r.Metrics.Cycles
		instr += r.Metrics.Instructions
		spilled += r.Metrics.PCRFWrites
	}
	check := func(when string) {
		t.Helper()
		body := scrapeMetrics(t, c)
		for name, want := range map[string]int64{
			"finereg_sim_gpu_cycles_total":       cycles,
			"finereg_sim_gpu_instructions_total": instr,
			"finereg_sim_pcrf_spill_regs_total":  spilled,
		} {
			if got := metricInt(t, body, name); got != want {
				t.Errorf("%s: %s = %d, executed jobs' metrics sum to %d", when, name, got, want)
			}
		}
	}
	check("after the cold jobs")

	if err := runRemote(c, jobs...).Err(); err != nil {
		t.Fatal(err)
	}
	check("after a warm resubmit")
}

// TestProgressSampleCrossesSSEWhole: a progress event carries the
// simulator's sample itself, so a sample with every field set comes out of
// record.progress → SSE → StreamEvents equal to what went in — WallMS
// included, which a field-by-field copy of the sample used to drop.
func TestProgressSampleCrossesSSEWhole(t *testing.T) {
	want := trace.ProgressSample{
		Cycle: 4096, CycleDelta: 1024, GridCTAs: 96, CTAsLaunched: 40, CTAsRetired: 12,
		Instructions: 56789, WallMS: 77, CyclesPerSec: 1.5e6, Final: true,
		Ops: map[string]int64{"gpu_cycles": 1024, "gpu_instructions": 56789},
	}
	eng := &runner.Engine{Cache: runner.NewCache(""), Exec: func(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
		j.Cfg.Progress(want)
		return runner.Simulate(ctx, key, j)
	}}
	// A period past the run's end installs the record's progress callback
	// and leaves the simulator only its Final sample, after the planted one.
	_, c := newTestServer(t, Config{Engine: eng, Workers: 1, ProgressEvery: 1 << 40})
	st, err := c.SubmitJob(context.Background(), RequestFromJob(tinyJob(t, "CS", runner.Baseline())))
	if err != nil {
		t.Fatal(err)
	}
	var got *trace.ProgressSample
	err = c.StreamEvents(context.Background(), st.ID, func(ev Event) bool {
		if ev.Kind == eventProgress && got == nil {
			got = ev.ProgressSample
		}
		if ev.Kind != eventProgress && ev.ProgressSample != nil {
			t.Errorf("%s event carries a progress sample: %+v", ev.Kind, ev.ProgressSample)
		}
		return ev.Kind != eventFinish
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(*got, want) {
		t.Errorf("sample after the SSE hop = %+v, want %+v", got, want)
	}
}

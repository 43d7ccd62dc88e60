package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"finereg/internal/runner"
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
	var after Event // the event that followed the last sample
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
			after = Event{}
		} else if after.Kind == "" {
			after = ev
		}
	}
	if len(progress) < 2 {
		t.Fatalf("got %d progress events, want a periodic series plus the final sample", len(progress))
	}
	// A subscriber that falls more than the retained window behind skips
	// the pruned samples, never the newest: the series is monotone with
	// consistent CTA accounting, and it ends with the Final sample, followed
	// by finish.
	if last := progress[len(progress)-1]; !last.Final || after.Kind != eventFinish {
		t.Errorf("stream's last sample (cycle %d) has Final=%v and is followed by %q, want the Final sample then finish",
			last.Cycle, last.Final, after.Kind)
	}
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

// TestRecordProgressBounds exercises the record's log directly through the
// cursor subscribers read it by: the retained progress window, monotone
// sequence numbers, the wake channel of a reader that is caught up, and the
// terminal-state guard.
func TestRecordProgressBounds(t *testing.T) {
	rec := newRecord("j1", "k1", tinyJob(t, "CS", runner.Baseline()))
	rec.submitted()
	rec.start()

	const n = 2*progressKeep + 8
	for i := 1; i <= n; i++ {
		rec.progress(trace.ProgressSample{Cycle: int64(i * 100)})
	}

	evs, wake := rec.since(0)
	if wake != nil {
		t.Fatal("since(0) on a non-empty log returned a wake channel")
	}
	var kept []Event
	var lifecycle int
	for _, ev := range evs {
		if ev.Kind == eventProgress {
			kept = append(kept, ev)
		} else {
			lifecycle++
		}
	}
	if len(kept) != progressKeep {
		t.Errorf("retained %d progress events, want %d", len(kept), progressKeep)
	}
	if lifecycle != 2 {
		t.Errorf("pruning touched lifecycle events: %d retained, want 2", lifecycle)
	}
	// The retained window is the most recent samples, in order, and Seq
	// keeps counting across pruned history.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("log out of order at %d: seq %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	for i := 1; i < len(kept); i++ {
		if kept[i].Cycle <= kept[i-1].Cycle {
			t.Fatalf("retained window out of order at %d: %+v then %+v", i, kept[i-1], kept[i])
		}
	}
	if got := kept[len(kept)-1].Cycle; got != int64(n*100) {
		t.Errorf("newest retained sample at cycle %d, want %d", got, n*100)
	}
	last := evs[len(evs)-1].Seq
	if last != int64(2+n) {
		t.Errorf("seq %d after 2 lifecycle + %d progress events, want %d", last, n, 2+n)
	}
	if tail, _ := rec.since(last - 3); len(tail) != 3 || tail[0].Seq != last-2 {
		t.Errorf("since(%d) = %+v, want the 3 events after it", last-3, tail)
	}

	// A caught-up reader gets a channel instead, the same one for every
	// reader, and the next append closes it.
	tail, wake := rec.since(last)
	if len(tail) != 0 || wake == nil {
		t.Fatalf("caught-up since = %d events, wake %v; want none and a channel", len(tail), wake)
	}
	if _, again := rec.since(last); again != wake {
		t.Error("two caught-up readers got different wake channels")
	}
	rec.finish(nil, nil, false)
	select {
	case <-wake:
	default:
		t.Fatal("finish did not wake the caught-up readers")
	}

	// After the terminal transition, late samples are ignored: finish stays
	// the last event.
	rec.progress(trace.ProgressSample{Cycle: 1 << 30})
	if tail, _ := rec.since(last); len(tail) != 1 || tail[0].Kind != eventFinish {
		t.Errorf("after a late sample the log past seq %d is %+v, want finish alone", last, tail)
	}
}

// TestConcurrentCursorsFollowTheLog: readers following one record while it
// is written — each waiting on the shared wake channel when caught up —
// read strictly increasing Seqs and all end at finish.
func TestConcurrentCursorsFollowTheLog(t *testing.T) {
	rec := newRecord("j1", "k1", tinyJob(t, "CS", runner.Baseline()))
	rec.submitted()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				evs, wake := rec.since(last)
				if wake != nil {
					<-wake
					continue
				}
				for _, ev := range evs {
					if ev.Seq <= last {
						t.Errorf("seq %d read after %d", ev.Seq, last)
					}
					last = ev.Seq
				}
				if evs[len(evs)-1].Kind == eventFinish {
					return
				}
			}
		}()
	}
	rec.start()
	for i := 1; i <= 4*progressKeep; i++ {
		rec.progress(trace.ProgressSample{Cycle: int64(i)})
	}
	rec.finish(nil, nil, false)
	wg.Wait()
}

// stallWriter is a ResponseWriter whose first Write closes entered and then
// blocks until release closes: a subscriber whose connection stalls.
type stallWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{}
	release <-chan struct{}
	once    sync.Once
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// TestStalledSubscriberReadsNewestWindow: a subscriber stalls on its first
// write, the job starts only then and samples more than progressKeep times
// before the subscriber is released. The stream it then reads is the log:
// submit, start, exactly the newest progressKeep samples in Seq order —
// the Final one last — and finish; and the drop counter is the number of
// samples pruned before it read them.
func TestStalledSubscriberReadsNewestWindow(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, ProgressEvery: 64})
	entered := make(chan struct{})
	s.testBeforeRun = func(*record) { <-entered }
	st, err := c.SubmitJob(context.Background(), RequestFromJob(tinyJob(t, "CS", runner.Baseline())))
	if err != nil {
		t.Fatal(err)
	}
	rec := s.lookup(st.ID)
	w := &stallWriter{ResponseRecorder: httptest.NewRecorder(), entered: entered, release: rec.done}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil))

	var evs []Event
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event payload: %v", err)
			}
			evs = append(evs, ev)
		}
	}
	if state := rec.status().State; state != stateDone || len(evs) == 0 {
		t.Fatalf("job ended %s; the stream has %d events", state, len(evs))
	}
	finish := evs[len(evs)-1]
	if samples := finish.Seq - 3; samples <= 40 {
		t.Fatalf("the job sampled %d times; the test needs more than 40", samples)
	}
	if len(evs) != 3+progressKeep {
		t.Fatalf("stream has %d events, want submit, start, %d samples and finish", len(evs), progressKeep)
	}
	if evs[0].Kind != eventSubmit || evs[1].Kind != eventStart || finish.Kind != eventFinish {
		t.Errorf("stream is %s, %s, …, %s; want submit, start, …, finish", evs[0].Kind, evs[1].Kind, finish.Kind)
	}
	window := evs[2 : len(evs)-1]
	for i, ev := range window {
		if want := finish.Seq - int64(len(window)-i); ev.Kind != eventProgress || ev.Seq != want {
			t.Errorf("event %d of the window is %s seq %d, want progress seq %d", i, ev.Kind, ev.Seq, want)
		}
	}
	if !window[len(window)-1].Final {
		t.Error("the window's last sample is not Final")
	}
	if got, want := s.mSSEDropped.Value(), finish.Seq-3-progressKeep; got != want {
		t.Errorf("drop counter %d, want the %d pruned samples", got, want)
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

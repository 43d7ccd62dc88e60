package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"finereg/internal/runner"
)

// warmServer returns a server holding one finished record, with the
// convenience-form request that coalesces onto it and its id: a 1-SM, 8-CTA
// job, the shape a client resubmits to ask for a result it may already own.
func warmServer(b *testing.B) (*Server, JobRequest, string) {
	b.Helper()
	s := New(Config{Workers: 1})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	req := JobRequest{Bench: "CS", SMs: 1, Grid: 8, Policy: runner.FineRegDefault()}
	job, err := req.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	_, recs, err := s.admit([]*runner.Job{job})
	if err != nil {
		b.Fatal(err)
	}
	<-recs[0].done
	if st := recs[0].status(); st.State != stateDone {
		b.Fatalf("priming job ended %s: %s", st.State, st.Error)
	}
	return s, req, recs[0].id
}

// BenchmarkWarmSubmit is POST /v1/jobs for a job whose record is finished,
// at the handler: decode, resolve, validate, key, lookup, encode — this
// package's code and runner's, no sockets.
func BenchmarkWarmSubmit(b *testing.B) {
	s, req, _ := warmServer(b)
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("warm submit answered %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkWarmFetch is GET /v1/jobs/{id} of a finished record at the
// handler: lookup, snapshot, encode the status with its result.
func BenchmarkWarmFetch(b *testing.B) {
	s, _, id := warmServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if w.Code != http.StatusOK {
			b.Fatalf("warm fetch answered %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkWarmRoundTrip is the warm job as a client sees it — SubmitJob,
// then JobStatus — over loopback HTTP through serve.Client: the two above
// plus net/http on both ends and the client's decode.
func BenchmarkWarmRoundTrip(b *testing.B) {
	s, req, _ := warmServer(b)
	hs := httptest.NewServer(s)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.SubmitJob(ctx, req)
		if err != nil || !sub.Coalesced {
			b.Fatalf("warm submit: %+v, %v", sub, err)
		}
		if st, err := c.JobStatus(ctx, sub.ID); err != nil || st.Result == nil {
			b.Fatalf("warm fetch: %+v, %v", st, err)
		}
	}
}

// BenchmarkFollowFinished is Client.StreamEvents on a finished record over
// loopback HTTP, read to its "finish" event as Client.Run reads it: the
// per-stream cost a cold or ingest job pays once, the replayed lifecycle
// events included.
func BenchmarkFollowFinished(b *testing.B) {
	s, _, id := warmServer(b)
	hs := httptest.NewServer(s)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finished := false
		err := c.StreamEvents(ctx, id, func(ev Event) bool {
			finished = ev.Kind == eventFinish
			return !finished
		})
		if err != nil || !finished {
			b.Fatalf("follow: finished %v, %v", finished, err)
		}
	}
}

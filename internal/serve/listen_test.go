package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"finereg/internal/runner"
)

// TestListenAndDrain drives the binaries' whole lifecycle on a loopback
// port: once the context is cancelled an open SSE stream must end while its
// job is still in flight (service first, listener second — the other order
// would wait on the stream), and the call must return, cleanly, well inside
// the drain timeout once the job finishes.
func TestListenAndDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	s := New(Config{Workers: 1})
	entered, release := blockWorkers(s)
	const drainTimeout = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ListenAndDrain(ctx, "test", addr, s, s.Shutdown, drainTimeout) }()

	c := &Client{Base: "http://" + addr}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(c.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never started listening on %s: %v", addr, err)
		}
	}

	sub, err := c.SubmitBatch(context.Background(), []JobRequest{RequestFromJob(tinyJob(t, "CS", runner.Baseline()))})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the one worker holds the job; its stream stays open
	resp, err := http.Get(c.Base + "/v1/jobs/" + sub.Jobs[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamEnded := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		streamEnded <- err
	}()

	cancel()
	select {
	case err := <-streamEnded:
		if err != nil {
			t.Errorf("SSE stream ended with %v, want a clean EOF", err)
		}
	case err := <-done:
		t.Fatalf("ListenAndDrain returned (%v) with a job still in flight", err)
	case <-time.After(drainTimeout):
		t.Fatal("SSE stream still open after the drain timeout")
	}

	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ListenAndDrain = %v, want nil after a clean drain", err)
		}
	case <-time.After(drainTimeout):
		t.Fatal("ListenAndDrain did not return inside the drain timeout")
	}
	if st := s.lookup(sub.Jobs[0].ID).status(); st.State != stateDone {
		t.Errorf("in-flight job state %q after drain, want %q (err %q)", st.State, stateDone, st.Error)
	}
	if _, err := http.Get(c.Base + "/healthz"); err == nil {
		t.Error("listener still accepting after ListenAndDrain returned")
	}

	if err := ListenAndDrain(context.Background(), "test", "256.0.0.1:bad", s, s.Shutdown, time.Second); err == nil {
		t.Error("an unusable address must be a returned error, not an exit")
	}
}

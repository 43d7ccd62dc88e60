package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// What crosses the wire is pinned here, where the encode and decode paths
// were rewritten to allocate less: a response is still json.Marshal's bytes
// and a newline, a long event still decodes, and a body nobody reads is no
// longer read to its end.

// TestWriteJSONIsMarshalPlusNewline: WriteJSON's pooled one-pass encode
// sends exactly json.Marshal(v) and "\n", with that length declared — for
// a status carrying a result, a submission status and the error envelope,
// with the characters encoding/json escapes (<, >, &, U+2028) in them.
func TestWriteJSONIsMarshalPlusNewline(t *testing.T) {
	s, _, _, id := primed(t, Config{Workers: 1})
	st := s.lookup(id).status()
	if st.Result == nil {
		t.Fatal("the primed record has no result")
	}
	st.Label = "<CS> & \u2028 friends"
	for name, v := range map[string]any{
		"JobStatus":    st,
		"SubmitStatus": SubmitStatus{ID: id, Key: st.Key, State: stateDone, Coalesced: true},
		"errorBody":    errorBody{Error: "serve: <bad> & \u2028", Field: "source", Line: 3, Col: 7},
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		for range 2 { // the second encode runs on a recycled buffer
			w := httptest.NewRecorder()
			WriteJSON(w, http.StatusOK, v)
			if got := w.Body.String(); got != string(want) {
				t.Errorf("%s: WriteJSON sent\n%q\nwant json.Marshal's bytes and a newline\n%q", name, got, want)
			}
			if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("%s: Content-Length %s for a %d-byte body", name, cl, len(want))
			}
		}
	}
}

// TestStreamEventsDecodesLongEvent: the event reader starts from bufio's 4
// KiB and grows to the 1 MiB cap on demand, so an event line between the two
// still arrives whole, and the stream goes on after it.
func TestStreamEventsDecodesLongEvent(t *testing.T) {
	long := strings.Repeat("x", 300<<10)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i, ev := range []Event{
			{Seq: 1, Kind: eventSubmit, Job: "j0", Label: long, State: stateQueued},
			{Seq: 2, Kind: eventFinish, Job: "j0", State: stateDone},
		} {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", i+1, ev.Kind, mustJSON(t, ev))
		}
	}))
	defer hs.Close()
	var got []Event
	if err := (&Client{Base: hs.URL}).StreamEvents(context.Background(), "j0", func(ev Event) bool {
		got = append(got, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Label != long || got[1].Kind != eventFinish {
		t.Fatalf("got %d events (first label %d bytes), want the %d-byte label and then finish", len(got), len(got[0].Label), len(long))
	}
}

// TestCallDrainIsBounded: a peer — worker, coordinator or cache tier — that
// declares a 256 MiB body used to make Call read all of it, to drain the
// connection, before returning: after a failed decode, after an error
// status, and on a call that ignores the body. Now at most maxDrainBytes are
// drained and closing the body drops the connection, so the handler's
// writes fail once the socket buffers are full.
func TestCallDrainIsBounded(t *testing.T) {
	const declared, chunk = 256 << 20, 1 << 20
	for _, tc := range []struct {
		name   string
		status int
		call   func(c *Client) error
	}{
		{"decoded", http.StatusOK, func(c *Client) error {
			if _, err := c.JobStatus(context.Background(), "j0"); err == nil {
				return fmt.Errorf("a 256 MiB body of zeros decoded as a job status")
			}
			return nil
		}},
		{"error status", http.StatusBadGateway, func(c *Client) error {
			var ae *APIError
			if err := c.Call(context.Background(), http.MethodGet, "/", nil, nil); !errors.As(err, &ae) {
				return fmt.Errorf("a 502 answered %v", err)
			}
			return nil
		}},
		{"ignored", http.StatusOK, func(c *Client) error {
			return c.Call(context.Background(), http.MethodGet, "/", nil, nil)
		}},
	} {
		var written atomic.Int64
		done := make(chan struct{})
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer close(done)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(declared))
			w.WriteHeader(tc.status)
			zeros := make([]byte, chunk)
			for written.Load() < declared {
				n, err := w.Write(zeros)
				written.Add(int64(n))
				if err != nil {
					return
				}
			}
		}))
		if err := tc.call(&Client{Base: hs.URL}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the handler was still writing 30 s after the call returned", tc.name)
		}
		hs.Close()
		if n := written.Load(); n >= 32<<20 {
			t.Errorf("%s: the handler wrote %d MiB before a write failed, want < 32 MiB", tc.name, n>>20)
		}
	}
}

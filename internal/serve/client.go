package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"finereg/internal/runner"
)

// Client talks to a finereg-serve instance. It speaks the exact-form job
// encoding (RequestFromJob), so a job submitted through a Client resolves
// to the same canonical key — and therefore the same cache entry — as the
// same job run in-process.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8321".
	Base string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// ShedBackoff paces retries after a load shed (0 = 1s; the server's
	// Retry-After header, when present, takes precedence). The actual sleep
	// is jittered uniformly over [wait/2, wait] so a herd of clients shed
	// together does not retry in lockstep.
	ShedBackoff time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx server response: the HTTP status, the decoded
// error envelope (429 responses carry queue depth/capacity) and the
// Retry-After header, if any.
type APIError struct {
	Status     int
	Body       errorBody
	RetryAfter string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Body.Error != "" {
		return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Body.Error)
	}
	return fmt.Sprintf("serve: HTTP %d", e.Status)
}

// apiError decodes a non-2xx response into an *APIError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	ae := &APIError{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	if json.Unmarshal(body, &ae.Body) != nil || ae.Body.Error == "" {
		ae.Body.Error = string(bytes.TrimSpace(body))
	}
	return ae
}

// maxResponseBytes bounds every response Call decodes. The largest thing a
// server returns is a Result — a metrics struct plus optional per-window
// floats — far below this.
const maxResponseBytes = 16 << 20

// maxDrainBytes bounds what Call reads of a body it does not decode, to put
// the connection back in the pool. A longer remainder is not worth reading:
// closing the body drops the connection instead.
const maxDrainBytes = 64 << 10

// Call is the one place a request to a server or coordinator is built, sent
// and settled: method and path under Base, in (when non-nil) as the JSON
// body. A non-2xx answer is an *APIError. Otherwise out is nil (the body is
// ignored), a func(io.Reader) error that consumes the body as an event
// stream, or a value to JSON-decode it into, reading at most
// maxResponseBytes. Except for a stream — its consumer's to finish;
// closing is what stops one abandoned midway — up to maxDrainBytes of the
// rest of the body are drained so the connection goes back to the pool.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	stream, _ := out.(func(io.Reader) error)
	if stream != nil {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if stream != nil && resp.StatusCode < 300 {
		return stream(resp.Body)
	}
	defer io.CopyN(io.Discard, resp.Body, maxDrainBytes)
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	// A declared length is read into one slice of exactly that size (the
	// transport holds the body to it); only an undeclared one is read
	// through the limit, growing as it goes.
	var raw []byte
	switch n := resp.ContentLength; {
	case n > maxResponseBytes:
		err = fmt.Errorf("%d-byte body exceeds the %d-byte limit", n, maxResponseBytes)
	case n >= 0:
		raw = make([]byte, n)
		_, err = io.ReadFull(resp.Body, raw)
	default:
		raw, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	}
	if err == nil {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		return fmt.Errorf("serve: decoding %s response: %w", req.URL.Path, err)
	}
	return nil
}

// shedWait resolves one shed backoff sleep: the server's Retry-After (in
// seconds, when parseable) overrides base, and the result is jittered
// uniformly over [wait/2, wait]. Without jitter, every client shed by the
// same full queue retries at the same instant and the herd sheds again.
func shedWait(base time.Duration, retryAfter string) time.Duration {
	wait := base
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait <= 0 {
		return 0
	}
	half := wait / 2
	return half + rand.N(wait-half+1)
}

// WaitShed sleeps out one load shed — the shed is the server protecting
// itself; the client's job is patience — or returns ctx.Err() if ctx ends
// first.
func (c *Client) WaitShed(ctx context.Context, shed *APIError) error {
	base := c.ShedBackoff
	if base <= 0 {
		base = time.Second
	}
	select {
	case <-time.After(shedWait(base, shed.RetryAfter)):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitBatch submits a batch, waiting out 429 load sheds. A batch that can
// never fit — larger than the server's whole queue — fails immediately
// instead of retrying forever.
func (c *Client) SubmitBatch(ctx context.Context, reqs []JobRequest) (*BatchSubmitStatus, error) {
	for {
		var st BatchSubmitStatus
		err := c.Call(ctx, http.MethodPost, "/v1/batches", BatchRequest{Jobs: reqs}, &st)
		if err == nil {
			return &st, nil
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
			return nil, err
		}
		if ae.Body.QueueCap > 0 && len(reqs) > ae.Body.QueueCap {
			return nil, fmt.Errorf("serve: batch of %d jobs can never fit the server's queue of %d: %w",
				len(reqs), ae.Body.QueueCap, err)
		}
		if err := c.WaitShed(ctx, ae); err != nil {
			return nil, err
		}
	}
}

// SubmitJob submits one job (no retry; Execute has the shed patience).
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*SubmitStatus, error) {
	var st SubmitStatus
	if err := c.Call(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// StreamEvents subscribes to a job's SSE lifecycle stream, invoking fn
// for every decoded event until fn returns false, the stream ends, or ctx
// expires. Returns nil on a clean stop (fn false, or the stream closed —
// a draining server closes it before "finish", so callers that need the
// terminal event check for it) and the transport/decode error otherwise.
// The stream lives as long as the job: only ctx bounds it, not the HTTP
// client's request Timeout.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(Event) bool) error {
	hc := *c.http()
	hc.Timeout = 0
	unbounded := Client{Base: c.Base, HTTP: &hc}
	return unbounded.Call(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, func(body io.Reader) error {
		// bufio's own 4 KiB start, doubling to the 1 MiB event cap only for
		// an event that needs it: a lifecycle event is a few hundred bytes.
		sc := bufio.NewScanner(body)
		sc.Buffer(nil, 1<<20)
		terminal := false
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue // event:/id: lines and blank separators
			}
			var ev Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("serve: decoding event stream: %w", err)
			}
			if ev.Kind == eventFinish {
				terminal = true
			}
			if !fn(ev) {
				return nil
			}
		}
		if err := sc.Err(); err != nil && !terminal {
			return err
		}
		return nil
	})
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.Call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// BatchStatus fetches one batch's status.
func (c *Client) BatchStatus(ctx context.Context, id string) (*BatchStatus, error) {
	var st BatchStatus
	if err := c.Call(ctx, http.MethodGet, "/v1/batches/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// LostError reports a server that cannot be held to a job it was given: it
// stopped answering (a transport failure, or event streams that ended with
// nothing new, attempt after attempt), no longer knows the job, or keyed it
// under another simulator fingerprint. The job is not at fault; a caller
// with another server may run it there.
type LostError struct {
	Doing string // what the client was doing, e.g. "following job j0123…"
	Err   error
}

// Error implements error.
func (e *LostError) Error() string { return "serve: server lost " + e.Doing + ": " + e.Err.Error() }

// lost classifies a failed exchange: the caller's own cancellation if ctx
// ended, otherwise a *LostError.
func lost(ctx context.Context, doing string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &LostError{Doing: doing, Err: err}
}

// Run runs j on the server and returns its result. It is the one sequence
// by which a job crosses HTTP: submit, follow the job's event stream to its
// "finish" event (relaying progress samples to j.Cfg.Progress on the way),
// then fetch the status once for the result. key is the identity the caller
// holds the job under; a server that keys it differently simulates another
// model, and its result must not be committed under key. attempts bounds
// consecutive event-stream attempts that deliver nothing new.
//
// Run reports what happened, not what to do about it: an *APIError when the
// server answered the submission with a rejection, a *LostError when it
// stopped answering or cannot be trusted with the job, ctx.Err() when the
// caller gave up, and any other error is the job's own failure.
func (c *Client) Run(ctx context.Context, key string, j *runner.Job, attempts int) (*runner.Result, error) {
	st, err := c.SubmitJob(ctx, RequestFromJob(j))
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) {
			return nil, err
		}
		return nil, lost(ctx, "submitting", err)
	}
	if st.Key != key {
		return nil, &LostError{Doing: "submitting", Err: fmt.Errorf(
			"it keys the job %.12s…, the caller %.12s…: the two ends simulate under different fingerprints", st.Key, key)}
	}

	// A stream that breaks, or ends without "finish" (a draining server
	// closes it so), is one failed attempt; resubscribing replays the
	// record's history, and seen skips what was already relayed so no sample
	// is counted twice.
	var seen int64
	for fails := 0; ; {
		fresh, finished := false, false
		err := c.StreamEvents(ctx, st.ID, func(ev Event) bool {
			if ev.Seq <= seen {
				return true
			}
			seen, fresh = ev.Seq, true
			if ev.ProgressSample != nil && j.Cfg.Progress != nil {
				j.Cfg.Progress(*ev.ProgressSample)
			}
			finished = ev.Kind == eventFinish
			return !finished
		})
		if finished {
			break
		}
		if err == nil {
			err = errors.New("event stream ended before finish")
		}
		if fresh {
			fails = 0
		}
		// An answering server that no longer knows the job (e.g. restarted
		// in between) is lost at once, a silent one after attempts in a row
		// that delivered nothing new.
		var ae *APIError
		if fails++; errors.As(err, &ae) || fails >= attempts || ctx.Err() != nil {
			return nil, lost(ctx, "following job "+st.ID, err)
		}
	}

	js, err := c.JobStatus(ctx, st.ID)
	switch {
	case err != nil:
		return nil, lost(ctx, "fetching job "+st.ID, err)
	case js.State == stateFailed:
		return nil, fmt.Errorf("serve: job %s failed: %s", st.ID, js.Error)
	case js.Result == nil:
		return nil, fmt.Errorf("serve: job %s finished without a result", st.ID)
	}
	return js.Result, nil
}

// executeAttempts is Execute's bound on event-stream attempts in a row that
// deliver nothing new (the fleet dispatcher's default DownAfter).
const executeAttempts = 3

// Execute is a runner.Executor over Run: set it as an Engine's Exec and the
// server sits behind that engine's coalescing, cache tiers, Timeout,
// progress events and counters. A caller with one server has nowhere else
// to take a shed job, so a 429 (queue full) or 503 (draining) is waited out
// and the job resubmitted.
func (c *Client) Execute(ctx context.Context, key string, j *runner.Job) (*runner.Result, error) {
	for {
		res, err := c.Run(ctx, key, j, executeAttempts)
		var ae *APIError
		if !errors.As(err, &ae) || (ae.Status != http.StatusTooManyRequests && ae.Status != http.StatusServiceUnavailable) {
			return res, err
		}
		if err := c.WaitShed(ctx, ae); err != nil {
			return nil, err
		}
	}
}

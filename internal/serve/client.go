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
	"strings"
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
	// PollInterval paces WaitBatch status polls (0 = 250ms).
	PollInterval time.Duration
	// ShedBackoff paces retries after a 429 load shed (0 = 1s; the
	// server's Retry-After header, when present, takes precedence). The
	// actual sleep is jittered uniformly over [wait/2, wait] so a herd of
	// clients shed together does not retry in lockstep.
	ShedBackoff time.Duration
	// Priority is applied to every submitted job (see
	// JobRequest.Priority). Zero is the default priority.
	Priority int
	// ClientID is the fair-share admission bucket reported with every
	// submission (see JobRequest.Client). Empty means the shared bucket.
	ClientID string
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string { return c.Base + path }

// APIError is a non-2xx server response: the HTTP status plus the decoded
// error envelope (429 responses carry queue depth/capacity).
type APIError struct {
	Status int
	Body   errorBody
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
	ae := &APIError{Status: resp.StatusCode}
	if json.Unmarshal(body, &ae.Body) != nil || ae.Body.Error == "" {
		ae.Body.Error = string(bytes.TrimSpace(body))
	}
	return ae
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return resp, apiError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, fmt.Errorf("serve: decoding %s response: %w", path, err)
		}
	}
	return resp, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// shedWait resolves one 429 backoff sleep: the server's Retry-After (in
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

// applyMeta stamps the client's Priority/ClientID onto the requests
// (copying; per-request values already set win).
func (c *Client) applyMeta(reqs []JobRequest) []JobRequest {
	if c.Priority == 0 && c.ClientID == "" {
		return reqs
	}
	out := make([]JobRequest, len(reqs))
	copy(out, reqs)
	for i := range out {
		if out[i].Priority == 0 {
			out[i].Priority = c.Priority
		}
		if out[i].Client == "" {
			out[i].Client = c.ClientID
		}
	}
	return out
}

// SubmitBatch submits a batch, retrying 429 load sheds with jittered
// backoff (the 429 is the server protecting itself; the client's job is
// patience). A batch that can never fit — larger than the server's whole
// queue — fails immediately instead of retrying forever.
func (c *Client) SubmitBatch(ctx context.Context, reqs []JobRequest) (*BatchSubmitStatus, error) {
	backoff := c.ShedBackoff
	if backoff <= 0 {
		backoff = time.Second
	}
	reqs = c.applyMeta(reqs)
	for {
		var st BatchSubmitStatus
		resp, err := c.postJSON(ctx, "/v1/batches", BatchRequest{Jobs: reqs}, &st)
		if err == nil {
			return &st, nil
		}
		var ae *APIError
		if resp == nil || !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
			return nil, err
		}
		if ae.Body.QueueCap > 0 && len(reqs) > ae.Body.QueueCap {
			return nil, fmt.Errorf("serve: batch of %d jobs can never fit the server's queue of %d: %w",
				len(reqs), ae.Body.QueueCap, err)
		}
		select {
		case <-time.After(shedWait(backoff, resp.Header.Get("Retry-After"))):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// SubmitJob submits one job (no retry; callers wanting shed patience use
// SubmitBatch).
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*SubmitStatus, error) {
	reqs := c.applyMeta([]JobRequest{req})
	var st SubmitStatus
	if _, err := c.postJSON(ctx, "/v1/jobs", reqs[0], &st); err != nil {
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
// client's request Timeout. The fleet dispatcher follows a worker's job
// to completion this way.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	hc := *c.http()
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // event:/id: lines and blank separators
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
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
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// BatchStatus fetches one batch's status.
func (c *Client) BatchStatus(ctx context.Context, id string) (*BatchStatus, error) {
	var st BatchStatus
	if err := c.getJSON(ctx, "/v1/batches/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitBatch polls a batch until every job is terminal (or ctx expires)
// and returns the final status.
func (c *Client) WaitBatch(ctx context.Context, id string) (*BatchStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		st, err := c.BatchStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Finished() {
			return st, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// DefaultSubmitChunk is the per-request job count RunJobs submits. Small
// enough to fit the server's default admission queue with room to spare;
// chunks stream in as earlier ones drain, with 429 backoff as the pacing
// signal.
const DefaultSubmitChunk = 16

// RunJobs submits jobs (chunked), waits for completion, and reshapes the
// statuses into a runner.Batch, making the remote server a drop-in
// replacement for Engine.Run (internal/experiments uses exactly this).
func (c *Client) RunJobs(ctx context.Context, jobs []*runner.Job) (*runner.Batch, error) {
	reqs := make([]JobRequest, len(jobs))
	for i, j := range jobs {
		reqs[i] = RequestFromJob(j)
	}

	// Submit every chunk before waiting on any: the server runs chunk N
	// while chunk N+1 waits out its 429 backoff, so the whole set
	// pipelines through the bounded queue.
	type span struct {
		id         string
		start, end int
	}
	var spans []span
	for lo := 0; lo < len(reqs); lo += DefaultSubmitChunk {
		hi := lo + DefaultSubmitChunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		sub, err := c.SubmitBatch(ctx, reqs[lo:hi])
		if err != nil {
			return nil, err
		}
		spans = append(spans, span{id: sub.ID, start: lo, end: hi})
	}

	b := &runner.Batch{
		Jobs:    jobs,
		Results: make([]*runner.Result, len(jobs)),
		Errs:    make([]error, len(jobs)),
	}
	b.Stats.Submitted = int64(len(jobs))
	for _, sp := range spans {
		st, err := c.WaitBatch(ctx, sp.id)
		if err != nil {
			return nil, err
		}
		if len(st.Jobs) != sp.end-sp.start {
			return nil, fmt.Errorf("serve: batch %s returned %d statuses for %d jobs",
				sp.id, len(st.Jobs), sp.end-sp.start)
		}
		for k, js := range st.Jobs {
			i := sp.start + k
			switch {
			case js.State == stateFailed:
				b.Errs[i] = fmt.Errorf("serve: job %s (%s): %s", js.ID, jobs[i].Label, js.Error)
				b.Stats.Failed++
			case js.Result != nil:
				b.Results[i] = js.Result
				if js.Cached {
					b.Stats.CacheHits++
				} else {
					b.Stats.Executed++
				}
			default:
				b.Errs[i] = fmt.Errorf("serve: job %s (%s) finished without a result", js.ID, jobs[i].Label)
				b.Stats.Failed++
			}
		}
	}
	return b, nil
}

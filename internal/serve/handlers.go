package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"finereg/internal/isa"
	"finereg/internal/runner"
	"finereg/internal/workload"
)

// routes wires the v1 API onto the server's mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleGetBatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle mounts an extra handler on the server's mux — the hook a fleet
// coordinator or worker uses to add its /v1/fleet/* and /v1/cache/*
// routes next to the core API. Must be called before serving traffic.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// WriteJSON is the one JSON response writer of the service and the fleet
// routes mounted on it: v on a single line with its Content-Length, so a
// body is never chunked. The value is encoded — json.Marshal's bytes and a
// newline, in one pass into a pooled buffer — before any header goes out;
// one that encoding/json refuses (a NaN in a result's metrics) is answered
// 500 with the error envelope, not 200 with no body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	// Encode writes nothing when it fails.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// errorBody is strings and ints: this Encode cannot fail.
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(errorBody{Error: "serve: encoding response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	// A write error means the client is gone; there is no one left to tell.
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSON {
		buf.Reset()
		jsonBufs.Put(buf)
	}
}

// jsonBufs recycles WriteJSON's buffers. One grown past maxPooledJSON — a
// large batch status — goes to the collector instead, so a rare big body
// does not stay pinned in the pool.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSON = 64 << 10

func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		// Load shed: tell the client to back off rather than queue
		// unboundedly server-side.
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests, errorBody{
			Error:      err.Error(),
			QueueDepth: len(s.queue),
			QueueCap:   cap(s.queue),
		})
	case errors.Is(err, errDraining):
		WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeBadRequest(w, err)
	}
}

// writeBadRequest renders a 400. When the failure is a program ingestion
// error the envelope carries the structured position (program index,
// field, assembler line/column) alongside the rendered message, so
// clients can point at the offending source instead of parsing strings.
func writeBadRequest(w http.ResponseWriter, err error) {
	body := errorBody{Error: err.Error()}
	var we *workload.Error
	if errors.As(err, &we) {
		body.Program, body.Field, body.Line, body.Col = we.Index, we.Field, we.Line, we.Col
	}
	WriteJSON(w, http.StatusBadRequest, body)
}

// maxBodyBytes bounds a request body: one maximal job (every program at
// the assembler's source cap, with 2x slack for JSON escaping) plus a
// full default batch of ordinary benchmark jobs. A batch whose programs
// sum past it must be split.
const maxBodyBytes = 2*workload.MaxPrograms*isa.MaxSourceBytes + DefaultMaxBatch*4096

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes. On failure it answers the request — 413 for an oversized
// body, 400 for a malformed one — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf("serve: bad request body: %v", err)})
	return false
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := req.Resolve()
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	sts, _, err := s.admit([]*runner.Job{job})
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if sts[0].Coalesced {
		status = http.StatusOK
	}
	WriteJSON(w, status, sts[0])
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: "serve: batch has no jobs"})
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatch {
		WriteJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("serve: batch of %d exceeds the %d-job limit", len(req.Jobs), s.cfg.MaxBatch)})
		return
	}
	jobs := make([]*runner.Job, 0, len(req.Jobs))
	for i := range req.Jobs {
		j, err := req.Jobs[i].Resolve()
		if err != nil {
			writeBadRequest(w, fmt.Errorf("serve: job %d: %w", i, err))
			return
		}
		jobs = append(jobs, j)
	}
	sts, recs, err := s.admit(jobs)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	b := s.registerBatch(recs)
	WriteJSON(w, http.StatusAccepted, BatchSubmitStatus{ID: b.id, Jobs: sts})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "serve: unknown job"})
		return
	}
	WriteJSON(w, http.StatusOK, rec.status())
}

func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(r.PathValue("id"))
	if b == nil {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "serve: unknown batch"})
		return
	}
	WriteJSON(w, http.StatusOK, b.status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Render(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Shutdown gracefully stops the server: admission closes (new submissions
// get 503), jobs still waiting in the queue fail fast, and in-flight
// simulations are given until ctx's deadline to finish on their own.
// When the deadline expires Engine.StopAll interrupts whatever is still
// executing, and Shutdown waits for the workers to observe it — the
// simulator checks its stop flag every event step and a dispatcher drops
// its request, so that wait is prompt. Returns
// ctx.Err() when the deadline forced a stop, nil on a clean drain.
// Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	if !already {
		s.draining = true
		close(s.queue)   // workers drain the backlog (failing it fast) and exit
		close(s.drainCh) // SSE streams terminate
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.engine.StopAll()
		<-done
		return ctx.Err()
	}
}

package serve

import (
	"fmt"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/trace"
	"finereg/internal/workload"
)

// This file is the service's wire vocabulary: the JSON request/response
// shapes of the v1 API. A JobRequest canonicalizes into a runner.Job, so
// the job's content-addressed key — and with it every dedup and cache
// layer below — is identical whether the job arrived over HTTP or was
// constructed in-process.

// JobRequest describes one simulation to run. Two forms are accepted:
//
//   - Convenience: name a Table II benchmark ("bench") and optionally a
//     machine size ("sms", default 16) and grid; the profile and config
//     are resolved server-side exactly as the CLIs resolve them.
//   - Exact: embed the full kernels.Profile and gpu.Config. This is the
//     passthrough form remote clients (internal/experiments, tests) use to
//     reproduce an in-process runner.Job bit for bit.
type JobRequest struct {
	// Bench is a Table II abbreviation (e.g. "CS"); ignored when Profile
	// is set.
	Bench string `json:"bench,omitempty"`
	// Profile is the full kernel profile (exact form).
	Profile *kernels.Profile `json:"profile,omitempty"`
	// SMs sizes the default machine (gpu.Default().Scale(SMs), default
	// 16); ignored when Cfg is set.
	SMs int `json:"sms,omitempty"`
	// Cfg is the full machine configuration (exact form).
	Cfg *gpu.Config `json:"cfg,omitempty"`
	// Programs, when non-empty, is the job's workload instead of
	// Bench/Profile: one user .sasm source or bench reference (see
	// internal/workload); a second program is a 400 with field
	// "programs". The program text enters the job's content-addressed key,
	// so submitting the same source always coalesces onto the same cache
	// entry.
	Programs []workload.Program `json:"programs,omitempty"`
	// Grid is the CTA count (default: the profile's reference grid scaled
	// by SMs/16, or by GridScale when set). Ignored for Programs jobs —
	// the program carries its own grid.
	Grid int `json:"grid,omitempty"`
	// GridScale scales the profile's reference grid when Grid is 0.
	GridScale float64 `json:"grid_scale,omitempty"`
	// Policy selects the register-file management policy. Custom policy
	// kinds cannot cross the wire (their factory is code) and are
	// rejected.
	Policy runner.PolicySpec `json:"policy"`
	// TrackReg and Stalls enable the corresponding instrumentation.
	TrackReg bool `json:"track_reg,omitempty"`
	Stalls   bool `json:"stalls,omitempty"`
	// Audit enables the runtime invariant auditor on the default config
	// (ignored when Cfg is set — set Cfg.Audit directly instead).
	Audit bool `json:"audit,omitempty"`
	// Label tags progress lines and errors; not part of the job identity.
	Label string `json:"label,omitempty"`
}

// Resolve canonicalizes the request into a validated runner.Job.
func (r *JobRequest) Resolve() (*runner.Job, error) {
	var prof kernels.Profile
	switch {
	case len(r.Programs) > 0:
		if r.Profile != nil || r.Bench != "" {
			return nil, fmt.Errorf("serve: job carries both programs and a bench/profile")
		}
		if r.Grid != 0 || r.GridScale != 0 {
			return nil, fmt.Errorf("serve: a program carries its own grid; job-level grid/grid_scale do not apply")
		}
	case r.Profile != nil:
		prof = *r.Profile
	case r.Bench != "":
		p, err := kernels.ProfileByName(r.Bench)
		if err != nil {
			return nil, err
		}
		prof = p
	default:
		return nil, fmt.Errorf("serve: job names neither bench nor profile nor programs")
	}

	var cfg gpu.Config
	if r.Cfg != nil {
		cfg = *r.Cfg
	} else {
		sms := r.SMs
		if sms == 0 {
			sms = 16
		}
		if sms < 1 || sms > 4096 {
			return nil, fmt.Errorf("serve: sms %d outside [1, 4096]", sms)
		}
		cfg = gpu.Default().Scale(sms)
		cfg.Audit = r.Audit
	}

	j := &runner.Job{
		Cfg:      cfg,
		Policy:   r.Policy,
		TrackReg: r.TrackReg,
		Stalls:   r.Stalls,
		Programs: r.Programs,
		Label:    r.Label,
	}
	if len(r.Programs) == 0 {
		j.Profile, j.Grid = prof, r.Grid
		if r.Grid == 0 {
			j.Grid = prof.ScaledGrid(r.GridScale, cfg.NumSMs)
		}
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// RequestFromJob returns the exact-form request reproducing j: resolving
// it on any server yields the same canonical job, hence the same key,
// cache entry, and result bytes as running j in-process.
func RequestFromJob(j *runner.Job) JobRequest {
	cfg, prof := j.Cfg, j.Profile
	if len(j.Programs) > 0 {
		return JobRequest{
			Cfg:      &cfg,
			Policy:   j.Policy,
			TrackReg: j.TrackReg,
			Stalls:   j.Stalls,
			Programs: j.Programs,
			Label:    j.Label,
		}
	}
	return JobRequest{
		Profile:  &prof,
		Cfg:      &cfg,
		Grid:     j.Grid,
		Policy:   j.Policy,
		TrackReg: j.TrackReg,
		Stalls:   j.Stalls,
		Label:    j.Label,
	}
}

// BatchRequest is the body of POST /v1/batches.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// SubmitStatus is the per-job outcome of a submission.
type SubmitStatus struct {
	// ID is the job's server identity — a prefix of its content-addressed
	// key, so resubmitting the same job always yields the same ID.
	ID string `json:"id"`
	// Key is the full runner.Job cache key.
	Key string `json:"key"`
	// State is "queued", "running", "done", or "failed".
	State string `json:"state"`
	// Coalesced reports that the submission matched an existing job
	// (in-flight or completed) and no new work was enqueued.
	Coalesced bool `json:"coalesced,omitempty"`
}

// BatchSubmitStatus is the response of POST /v1/batches.
type BatchSubmitStatus struct {
	ID string `json:"id"`
	// Jobs has one entry per requested job, in request order (duplicate
	// requests map to the same ID).
	Jobs []SubmitStatus `json:"jobs"`
}

// JobStatus is the response of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Label  string `json:"label,omitempty"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result carries the metrics (and Figure 5 windows when tracked) once
	// State is "done".
	Result *runner.Result `json:"result,omitempty"`
	// QueuedAtMS/StartedAtMS/FinishedAtMS are Unix milliseconds (0 =
	// not reached).
	QueuedAtMS   int64 `json:"queued_at_ms,omitempty"`
	StartedAtMS  int64 `json:"started_at_ms,omitempty"`
	FinishedAtMS int64 `json:"finished_at_ms,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (s *JobStatus) Done() bool { return s.State == stateDone || s.State == stateFailed }

// BatchStatus is the response of GET /v1/batches/{id}.
type BatchStatus struct {
	ID     string `json:"id"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	// Jobs lists per-job statuses in submission order (duplicates share
	// an ID and a status).
	Jobs []JobStatus `json:"jobs"`
}

// Finished reports whether every job in the batch reached a terminal
// state.
func (b *BatchStatus) Finished() bool { return b.Done >= b.Total }

// Event is one entry of a job's lifecycle stream (SSE `data:` payload;
// the kind doubles as the SSE `event:` field).
type Event struct {
	Seq   int64  `json:"seq"`
	Kind  string `json:"event"` // "submit", "start", "progress", "finish"
	Job   string `json:"job"`
	Label string `json:"label,omitempty"`
	State string `json:"state"`
	// Cached is set on "finish" when the result came from the cache or an
	// in-flight duplicate rather than a fresh simulation.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	AtMS   int64  `json:"at_ms"`

	// ProgressSample is a "progress" event's in-run sample, its fields
	// inlined into the event's JSON (nil, and absent, on lifecycle events).
	// A forwarding hop — a fleet coordinator relaying a worker's stream —
	// hands it on as it arrived.
	*trace.ProgressSample
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
	// Field/Line/Col locate a workload validation failure in the request:
	// the spec field and — for assembler failures — the 1-based source
	// position. Omitted (zero) when the failure is not a program ingestion
	// error.
	Field string `json:"field,omitempty"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
	// QueueDepth/QueueCap qualify 429 load-shed responses.
	QueueDepth int `json:"queue_depth,omitempty"`
	QueueCap   int `json:"queue_cap,omitempty"`
}

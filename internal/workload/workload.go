// Package workload is the program-ingestion layer: it turns user-supplied
// kernel descriptions — .sasm source text in the internal/isa dialect, or
// references to the built-in Table II benchmarks — into launchable
// kernels.Kernel values, with the same admission-hardening contract as the
// rest of the serving stack: untrusted input is rejected with a structured
// *Error (offending field, assembler line/column), never a
// panic, and loading is deterministic so a program produces byte-identical
// kernels whether ingested locally, via serve, or via fleet.
//
// A workload.Program is a pure-value spec (it serializes canonically into
// the content-addressed runner job key), and Load is a pure function of
// the spec, so the cache key of a job changes iff the program text or
// launch geometry changes.
package workload

import (
	"errors"
	"fmt"

	"finereg/internal/isa"
	"finereg/internal/kernels"
)

// Defaults applied when neither the spec nor the source's launch
// directives pin a value.
const (
	// DefaultWarpsPerCTA is the warps-per-CTA fallback for source programs.
	DefaultWarpsPerCTA = 4
	// DefaultGridCTAs is the grid-size fallback for source programs.
	DefaultGridCTAs = 64
)

// Program specifies a job's kernel: either Source (assembly text) or
// Bench (a Table II abbreviation), plus optional launch-geometry
// overrides. Exactly one of Source/Bench must be set. All fields are
// plain values serialized in declaration order, so the spec participates
// in the canonical job-key encoding; omitempty keeps legacy keys stable.
type Program struct {
	// Source is assembly text in the internal/isa dialect. Launch
	// directives in the source (.warps/.shmem/.grid) provide defaults that
	// the override fields below win over.
	Source string `json:"source,omitempty"`
	// Bench names a built-in Table II benchmark (e.g. "SG").
	Bench string `json:"bench,omitempty"`
	// WarpsPerCTA overrides the source's .warps directive (source
	// programs only).
	WarpsPerCTA int `json:"warps_per_cta,omitempty"`
	// SharedMem overrides the source's .shmem directive in bytes per CTA
	// (source programs only; 0 means "use the directive/default").
	SharedMem int `json:"shared_mem,omitempty"`
	// Grid overrides the grid size in CTAs (both source and bench).
	Grid int `json:"grid,omitempty"`
}

// Error is a structured ingestion failure. Field names the offending spec
// field, and Line/Col carry the assembler position when the failure came
// from parsing Source (1-based; zero when not applicable).
type Error struct {
	Field string
	Line  int
	Col   int
	Msg   string
	err   error
}

// Error renders "workload: field: [line L, col C:] msg".
func (e *Error) Error() string {
	s := "workload: " + e.Field + ": "
	switch {
	case e.Line > 0 && e.Col > 0:
		s += fmt.Sprintf("line %d, col %d: ", e.Line, e.Col)
	case e.Line > 0:
		s += fmt.Sprintf("line %d: ", e.Line)
	}
	return s + e.Msg
}

// Unwrap exposes the underlying cause (e.g. *isa.AsmError).
func (e *Error) Unwrap() error { return e.err }

func errField(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Load lowers the spec into a launchable kernel: Source is assembled,
// validated, and analyzed through the liveness pass (Bench programs reuse
// the built-in generators) — once per process, through the program table
// (kernels.Assemble, kernels.Generate) — and the result is wrapped with an
// occupancy profile derived from the program's register demand and launch
// geometry.
// lim, when non-zero, classifies the profile (Type-S vs Type-R) under
// those SM limits — classification is cosmetic (tables and labels), so a
// zero Limits is fine. Every failure is a *Error.
func (p *Program) Load(lim kernels.Limits) (*kernels.Kernel, error) {
	switch {
	case p.Source == "" && p.Bench == "":
		return nil, errField("source", "one of source or bench is required")
	case p.Source != "" && p.Bench != "":
		return nil, errField("source", "source and bench are mutually exclusive")
	case p.Bench != "":
		return p.loadBench()
	}
	return p.loadSource(lim)
}

func (p *Program) loadBench() (*kernels.Kernel, error) {
	if p.WarpsPerCTA != 0 || p.SharedMem != 0 {
		return nil, errField("bench", "warps_per_cta/shared_mem overrides apply to source programs only (bench %q has a fixed profile)", p.Bench)
	}
	prof, err := kernels.ProfileByName(p.Bench)
	if err != nil {
		return nil, &Error{Field: "bench", Msg: err.Error(), err: err}
	}
	if p.Grid < 0 {
		return nil, errField("grid", "grid %d < 0", p.Grid)
	}
	k, err := kernels.Build(prof, p.Grid)
	if err != nil {
		return nil, &Error{Field: "bench", Msg: err.Error(), err: err}
	}
	return k, nil
}

func (p *Program) loadSource(lim kernels.Limits) (*kernels.Kernel, error) {
	c, err := kernels.Assemble(p.Source)
	if err != nil {
		e := &Error{Field: "source", Msg: err.Error(), err: err}
		var ae *isa.AsmError
		if errors.As(err, &ae) {
			e.Line, e.Col, e.Msg = ae.Line, ae.Col, ae.Msg
		}
		return nil, e
	}
	prog, launch := c.Prog, c.Launch

	warps := firstPositive(p.WarpsPerCTA, launch.WarpsPerCTA, DefaultWarpsPerCTA)
	if p.WarpsPerCTA < 0 || warps < 1 || warps > 64 {
		return nil, errField("warps_per_cta", "warps per CTA %d out of range [1,64]", firstNonzero(p.WarpsPerCTA, launch.WarpsPerCTA))
	}
	shmem := firstPositive(p.SharedMem, launch.SharedMem, 0)
	if p.SharedMem < 0 || shmem < 0 || shmem > 1<<24 {
		return nil, errField("shared_mem", "shared memory %d out of range [0,%d]", firstNonzero(p.SharedMem, launch.SharedMem), 1<<24)
	}
	grid := firstPositive(p.Grid, launch.GridCTAs, DefaultGridCTAs)
	if p.Grid < 0 || grid < 1 || grid > 1<<22 {
		return nil, errField("grid", "grid %d out of range [1,%d]", firstNonzero(p.Grid, launch.GridCTAs), 1<<22)
	}

	prof := kernels.Profile{
		Abbrev:      prog.Name,
		Name:        prog.Name,
		Suite:       "user",
		WarpsPerCTA: warps,
		Regs:        prog.RegsPerThread,
		SharedMem:   shmem,
		GridCTAs:    grid,
	}
	if lim != (kernels.Limits{}) {
		prof.Class = prof.Classify(lim)
	}
	return c.Kernel(prof, grid), nil
}

func firstPositive(vals ...int) int {
	for _, v := range vals {
		if v > 0 {
			return v
		}
	}
	return 0
}

func firstNonzero(vals ...int) int {
	for _, v := range vals {
		if v != 0 {
			return v
		}
	}
	return 0
}

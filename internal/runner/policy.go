package runner

import (
	"fmt"
	"strings"

	"finereg/internal/gpu"
)

// PolicySpec is a serializable description of a register-file management
// policy — the job-key-friendly counterpart of gpu.PolicyFactory (which,
// being a closure, can be neither hashed nor stored). The Kind plus the
// parameter fields fully determine behaviour for the built-in policies, so
// two jobs with equal specs are interchangeable and cache-equivalent.
type PolicySpec struct {
	// Kind selects the policy: "baseline", "vt", "regdram", "regmutex",
	// "finereg", "finereg-default", "finereg-full", or "custom:<name>".
	Kind string `json:"kind"`
	// DRAMCap is the Reg+DRAM per-SM off-chip pending-CTA cap.
	DRAMCap int `json:"dram_cap"`
	// SRPFrac is the RegMutex shared-register-pool fraction.
	SRPFrac float64 `json:"srp_frac"`
	// ACRFBytes/PCRFBytes split the register file for explicit FineReg
	// configurations (unused by "finereg-default", which halves whatever
	// the SM config provides).
	ACRFBytes int `json:"acrf_bytes"`
	PCRFBytes int `json:"pcrf_bytes"`

	// factory backs "custom:" specs only. It never reaches the job key or
	// the on-disk cache — the custom name stands in for it, so the name
	// MUST uniquely and stably identify the policy's behaviour (version it
	// if the behaviour changes).
	factory gpu.PolicyFactory
}

// Baseline is the conventional GPU (no CTA switching).
func Baseline() PolicySpec { return PolicySpec{Kind: "baseline"} }

// VirtualThread is the Virtual Thread configuration.
func VirtualThread() PolicySpec { return PolicySpec{Kind: "vt"} }

// RegDRAM is the Reg+DRAM (Zorua-like) configuration with the given
// per-SM off-chip pending-CTA cap.
func RegDRAM(cap int) PolicySpec { return PolicySpec{Kind: "regdram", DRAMCap: cap} }

// VTRegMutex is the VT+RegMutex configuration with srpFrac of the register
// file as the shared register pool.
func VTRegMutex(srpFrac float64) PolicySpec { return PolicySpec{Kind: "regmutex", SRPFrac: srpFrac} }

// FineReg is the paper's policy with an explicit ACRF/PCRF byte split.
func FineReg(acrfBytes, pcrfBytes int) PolicySpec {
	return PolicySpec{Kind: "finereg", ACRFBytes: acrfBytes, PCRFBytes: pcrfBytes}
}

// FineRegDefault splits the configured register file in half.
func FineRegDefault() PolicySpec { return PolicySpec{Kind: "finereg-default"} }

// FineRegFull is the ablation that stores full register sets in the PCRF
// instead of live-only sets.
func FineRegFull(acrfBytes, pcrfBytes int) PolicySpec {
	return PolicySpec{Kind: "finereg-full", ACRFBytes: acrfBytes, PCRFBytes: pcrfBytes}
}

// Custom wraps an arbitrary factory under a caller-chosen name. The name
// becomes part of the job key (and hence the cache identity), so it must
// uniquely identify the factory's behaviour across invocations.
func Custom(name string, pf gpu.PolicyFactory) PolicySpec {
	return PolicySpec{Kind: "custom:" + name, factory: pf}
}

// DefaultSRPFrac and DefaultDRAMCap are the operating points used wherever
// the paper does not tune per application: a quarter of the register file
// as RegMutex's shared pool, four off-chip pending CTAs per SM for
// Reg+DRAM. They are the -srp/-dram-cap defaults and the experiments'
// untuned points.
const (
	DefaultSRPFrac = 0.25
	DefaultDRAMCap = 4
)

// builtins is the one table of built-in policy kinds: what a kind is called
// on a command line and in the paper, how a spec of it is labelled, and the
// gpu factory it resolves to. Naming a new policy everywhere — CLIs, job
// keys, experiments — is one row here plus its constructor above. The
// nameable rows come first, in the paper's plot order (what -policy all
// runs).
var builtins = []struct {
	kind string
	// name is the -policy/-config spelling and legend the paper's Figure
	// 12/13 label; ParsePolicy accepts either. Both are empty for kinds
	// that need an explicit ACRF/PCRF split and so have no constructor
	// from (srpFrac, dramCap).
	name, legend string
	parse        func(srpFrac float64, dramCap int) PolicySpec
	label        func(p PolicySpec) string // nil: the kind is the label
	factory      func(p PolicySpec) gpu.PolicyFactory
}{
	{kind: "baseline", name: "baseline", legend: "Baseline",
		parse:   func(float64, int) PolicySpec { return Baseline() },
		factory: func(PolicySpec) gpu.PolicyFactory { return gpu.Baseline() }},
	{kind: "vt", name: "vt", legend: "VT",
		parse:   func(float64, int) PolicySpec { return VirtualThread() },
		factory: func(PolicySpec) gpu.PolicyFactory { return gpu.VirtualThread() }},
	{kind: "regdram", name: "regdram", legend: "Reg+DRAM",
		parse:   func(_ float64, dramCap int) PolicySpec { return RegDRAM(dramCap) },
		label:   func(p PolicySpec) string { return fmt.Sprintf("regdram(cap=%d)", p.DRAMCap) },
		factory: func(p PolicySpec) gpu.PolicyFactory { return gpu.RegDRAM(p.DRAMCap) }},
	{kind: "regmutex", name: "regmutex", legend: "VT+RegMutex",
		parse:   func(srpFrac float64, _ int) PolicySpec { return VTRegMutex(srpFrac) },
		label:   func(p PolicySpec) string { return fmt.Sprintf("regmutex(srp=%.2f)", p.SRPFrac) },
		factory: func(p PolicySpec) gpu.PolicyFactory { return gpu.VTRegMutex(p.SRPFrac) }},
	{kind: "finereg-default", name: "finereg", legend: "FineReg",
		parse:   func(float64, int) PolicySpec { return FineRegDefault() },
		factory: func(PolicySpec) gpu.PolicyFactory { return gpu.FineRegDefault() }},
	{kind: "finereg", label: splitLabel,
		factory: func(p PolicySpec) gpu.PolicyFactory { return gpu.FineReg(p.ACRFBytes, p.PCRFBytes) }},
	{kind: "finereg-full", label: splitLabel,
		factory: func(p PolicySpec) gpu.PolicyFactory { return gpu.FineRegFull(p.ACRFBytes, p.PCRFBytes) }},
}

func splitLabel(p PolicySpec) string {
	return fmt.Sprintf("%s(%dK/%dK)", p.Kind, p.ACRFBytes>>10, p.PCRFBytes>>10)
}

// PolicyKinds lists the names ParsePolicy accepts, in the paper's plot
// order: Baseline, VT, Reg+DRAM, VT+RegMutex, FineReg.
func PolicyKinds() []string {
	var names []string
	for _, b := range builtins {
		if b.name != "" {
			names = append(names, b.name)
		}
	}
	return names
}

// ParsePolicy resolves a configuration by its command-line name or its
// paper legend ("regdram" or "Reg+DRAM") at the given operating point;
// srpFrac and dramCap reach only the kinds that take them.
func ParsePolicy(name string, srpFrac float64, dramCap int) (PolicySpec, error) {
	for _, b := range builtins {
		if b.name != "" && (name == b.name || name == b.legend) {
			return b.parse(srpFrac, dramCap), nil
		}
	}
	return PolicySpec{}, fmt.Errorf("runner: unknown policy %q (want %s)", name, strings.Join(PolicyKinds(), ", "))
}

// Name returns a short human label ("regmutex(srp=0.25)") for progress
// lines and error messages.
func (p PolicySpec) Name() string {
	for _, b := range builtins {
		if b.kind == p.Kind && b.label != nil {
			return b.label(p)
		}
	}
	return p.Kind
}

// Factory resolves the spec to a gpu.PolicyFactory.
func (p PolicySpec) Factory() (gpu.PolicyFactory, error) {
	for _, b := range builtins {
		if b.kind == p.Kind {
			return b.factory(p), nil
		}
	}
	if p.factory != nil {
		return p.factory, nil
	}
	return nil, fmt.Errorf("runner: policy spec %q has no factory", p.Kind)
}

package runner

import (
	"reflect"
	"strings"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/mem"
)

// TestPolicyKindsRoundTrip: every name the table offers parses, resolves to
// a factory and builds a policy on the default SM; the paper's legend is an
// accepted spelling of the same spec; an unknown name is an error that
// lists the choices.
func TestPolicyKindsRoundTrip(t *testing.T) {
	want := []string{"baseline", "vt", "regdram", "regmutex", "finereg"}
	if got := PolicyKinds(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("PolicyKinds() = %v, want %v (the -policy all order)", got, want)
	}
	legends := []string{"Baseline", "VT", "Reg+DRAM", "VT+RegMutex", "FineReg"}
	cfg := gpu.Default()
	hier := mem.NewHierarchy(cfg.L2Bytes, cfg.L2Ways, cfg.DRAMLatency, cfg.DRAMBytesPerCycle, cfg.Lat)
	for i, name := range PolicyKinds() {
		spec, err := ParsePolicy(name, DefaultSRPFrac, DefaultDRAMCap)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		pf, err := spec.Factory()
		if err != nil {
			t.Fatalf("%s: Factory: %v", name, err)
		}
		if pf(cfg.SM, hier) == nil {
			t.Errorf("%s: factory built a nil policy", name)
		}
		if byLegend, err := ParsePolicy(legends[i], DefaultSRPFrac, DefaultDRAMCap); err != nil || !reflect.DeepEqual(byLegend, spec) {
			t.Errorf("ParsePolicy(%q) = %+v, %v; want the %q spec %+v", legends[i], byLegend, err, name, spec)
		}
	}
	_, err := ParsePolicy("bogus", DefaultSRPFrac, DefaultDRAMCap)
	if err == nil || !strings.Contains(err.Error(), strings.Join(want, ", ")) {
		t.Errorf("ParsePolicy(bogus) = %v, want an error listing %v", err, want)
	}
}

// TestPolicyNamesAndKeysPinned holds every constructor's label and job key
// to literals: the table behind Name and Factory may be reshaped, but a
// spec's identity — and with it every cached result — must not move.
func TestPolicyNamesAndKeysPinned(t *testing.T) {
	for _, c := range []struct {
		spec      PolicySpec
		name, key string
	}{
		{Baseline(), "baseline", "49052ee84a53fabc655e7b8c76add453fa0ec7fb59461880e9b7497eef01aa57"},
		{VirtualThread(), "vt", "a499dffd3a507f34dd2f86ff3ba1a85ce3d42b339404eae5d9206e614935e6d3"},
		{RegDRAM(4), "regdram(cap=4)", "1e511f910c2fce65f41e34b3c4947d297726bac10ec1ce7f761ec179c6772693"},
		{VTRegMutex(0.25), "regmutex(srp=0.25)", "2829550fd61f5e8ca6461f072d6f7cf3759baf98504c87365d05ef6fa8fe7138"},
		{FineReg(128<<10, 128<<10), "finereg(128K/128K)", "3a402a6ae8648c979b3fd0b024f2244cf00f2483e04b5404c91c7921c9549119"},
		{FineRegDefault(), "finereg-default", "969fa6a61773912db9d29f06b68e4b3d0e457e74d6c40bfdf5dc731c4363bff6"},
		{FineRegFull(192<<10, 64<<10), "finereg-full(192K/64K)", "e11ad2ac94799d26941247b03d600d028a3361d43a7161f27b5632f246e520aa"},
	} {
		if got := c.spec.Name(); got != c.name {
			t.Errorf("%+v: Name() = %q, want %q", c.spec, got, c.name)
		}
		if got := tinyJob(t, "CS", c.spec).Key("finereg-sim-v5"); got != c.key {
			t.Errorf("%s: key = %s, want %s", c.name, got, c.key)
		}
	}
	if spec, _ := ParsePolicy("regdram", 0.25, 4); !reflect.DeepEqual(spec, RegDRAM(4)) {
		t.Errorf("ParsePolicy(regdram, cap 4) = %+v, want RegDRAM(4) — srp must not leak into it", spec)
	}
	if spec, _ := ParsePolicy("finereg", 0.25, 4); !reflect.DeepEqual(spec, FineRegDefault()) {
		t.Errorf("ParsePolicy(finereg) = %+v, want FineRegDefault()", spec)
	}
}

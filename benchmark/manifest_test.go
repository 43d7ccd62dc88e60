package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The manifest and the code must name the same workloads and metrics, with
// the same units, directions and bounds.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: manifest %q / code %q (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q breaks the name or 200-character why limit (%d)", w.Name, len(w.Why))
		}
	}

	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, code emits %d", kind, len(got), len(want))
		}
		byName := map[string]manifestMetric{}
		for _, g := range got {
			byName[g.Name] = g
		}
		for _, d := range want {
			g, ok := byName[d.Name]
			if !ok {
				t.Errorf("%s: %s is emitted by the code but not in BENCHMARK.json", kind, d.Name)
				continue
			}
			delete(byName, d.Name)
			if seen[d.Name] {
				t.Errorf("%s used twice", d.Name)
			}
			seen[d.Name] = true
			if g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s: manifest %s/%s, code %s/%s", d.Name, g.Unit, g.Better, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s: name, unit %q or direction %q outside the contract", d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: manifest bound %v, code %v (must be in (0, 0.25])", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.Name)
			}
			if _, ok := cpuShareLayers[d.Layer]; kind == "per_layer" && !ok && d.Layer != "trace" {
				t.Errorf("%s: unknown layer %q", d.Name, d.Layer)
			}
		}
		for name := range byName {
			t.Errorf("%s: %s is in BENCHMARK.json but the code does not emit it", kind, name)
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, metric := range cpuShareLayers {
		if !seen[metric] {
			t.Errorf("profile bucket metric %s is not declared", metric)
		}
	}
}

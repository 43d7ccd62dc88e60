package main

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime/pprof"
)

// profile runs fn under a runtime/pprof CPU profile, folds the samples into
// per-layer shares, records them as the run's cpu_share metrics and checks
// that they sum to 1.
func profile(out *outcome, fn func()) (shares map[string]float64, cpuNs int64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	fn()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares, cpuNs = cpuShares(samples)
	var total float64
	for layer, s := range shares {
		out.layer[cpuShareLayers[layer]] = s
		total += s
	}
	out.check("cpu shares sum to 1", len(samples) > 0 && math.Abs(total-1) < 1e-9, "sum %v over %d samples", total, len(samples))
	return shares, cpuNs, nil
}

// writeTrace finalizes the span log and writes <outdir>/<workload>.trace.json.
func writeTrace(o options, log *spanLog, shares map[string]float64, cpuNs int64, note string) ([]spanAgg, error) {
	summary, kept := log.finalize()
	tf := traceFile{
		Workload:  o.workload,
		Seed:      o.seed,
		Note:      note + "; spans cover the first rounds, the summary the whole profiled phase",
		Summary:   summary,
		CPUShares: shares,
		CPUNs:     cpuNs,
		Spans:     kept,
	}
	return summary, writeJSONFile(filepath.Join(o.outDir, o.workload+".trace.json"), tf)
}

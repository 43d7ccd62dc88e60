package finereg

// Tracing-overhead benchmarks. The Sink plumbing in the SM tick loop is
// guarded by a single nil check per emission site, so an untraced run must
// cost the same as the pre-trace simulator. Measured when the trace
// subsystem was added, with binaries built from the pre-trace and
// post-trace commits run interleaved (12 pairs of BenchmarkSimulatorThroughput
// at -benchtime 10x on a noisy shared host):
//
//	paired-run mean overhead:  1.8% (per-pair ratios 0.84–1.11, noise-bound)
//	best-case runs:            28.9 ms/op traced-nil vs 29.4 ms/op pre-trace
//
// i.e. the nil-sink cost is under 2% and indistinguishable from host
// noise. The benchmarks below keep the comparison reproducible:
// BenchmarkSimulatorThroughput (bench_test.go) is the nil-sink number;
// BenchmarkTraceNoopSink attaches trace.Noop so every emission site pays
// the interface call; BenchmarkTraceAggregator and BenchmarkTraceChrome
// price the real consumers (both ~1.5x the untraced run).

import (
	"io"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/trace"
)

// benchRun executes the BenchmarkSimulatorThroughput workload (CS, 256
// CTAs, 4-SM machine, FineReg) with the given sink attached.
func benchRun(b *testing.B, sink trace.Sink) {
	b.Helper()
	prof, err := kernels.ProfileByName("CS")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ScaledConfig(4)
	var cycles int64
	for i := 0; i < b.N; i++ {
		k, err := kernels.Build(prof, 256)
		if err != nil {
			b.Fatal(err)
		}
		g := gpu.New(cfg, FineReg())
		g.SetTrace(sink)
		m, err := g.Run(k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkTraceNoopSink measures the tick loop with a non-nil no-op sink:
// every emission site pays its nil check plus an interface dispatch to an
// empty method. Compare against BenchmarkSimulatorThroughput (nil sink).
func BenchmarkTraceNoopSink(b *testing.B) { benchRun(b, trace.Noop{}) }

// BenchmarkTraceAggregator measures the tick loop feeding the stall
// aggregator — the cost of running finereg-trace with -out disabled, or
// of the experiments stalls report.
func BenchmarkTraceAggregator(b *testing.B) { benchRun(b, trace.NewStallAggregator()) }

// benchProgress executes the same workload with the given progress
// configuration attached to the run (nil cb = sampling off).
func benchProgress(b *testing.B, cb func(trace.ProgressSample), every int64) {
	b.Helper()
	prof, err := kernels.ProfileByName("CS")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ScaledConfig(4)
	cfg.Progress = cb
	cfg.ProgressEvery = every
	var cycles int64
	for i := 0; i < b.N; i++ {
		k, err := kernels.Build(prof, 256)
		if err != nil {
			b.Fatal(err)
		}
		g := gpu.New(cfg, FineReg())
		m, err := g.Run(k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkProgressOff is the Progress == nil hot path: the run loop pays
// one nil check per event step and nothing else. Its sim-cycles/s must
// stay within host noise of BenchmarkSimulatorThroughput (same workload);
// `bash benchmark/run.sh` and `go run ./benchmark -compare` are the
// noise-bounded way to compare two commits.
func BenchmarkProgressOff(b *testing.B) { benchProgress(b, nil, 0) }

// BenchmarkProgressNoop attaches a no-op callback at the default period:
// the sampling cost itself (an O(NumSMs) counter sweep per sample,
// ~15 samples/s of simulation at typical throughput).
func BenchmarkProgressNoop(b *testing.B) { benchProgress(b, func(trace.ProgressSample) {}, 0) }

// BenchmarkProgressNoop4k oversamples 25x (every 4096 cycles) to make the
// per-sample cost measurable at all; even this should move throughput by
// well under the trace-sink overhead.
func BenchmarkProgressNoop4k(b *testing.B) { benchProgress(b, func(trace.ProgressSample) {}, 4096) }

// BenchmarkTraceChrome measures the tick loop streaming Chrome trace JSON
// to a discarded writer — the serialization cost without disk I/O.
func BenchmarkTraceChrome(b *testing.B) {
	b.Helper()
	prof, err := kernels.ProfileByName("CS")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ScaledConfig(4)
	for i := 0; i < b.N; i++ {
		k, err := kernels.Build(prof, 256)
		if err != nil {
			b.Fatal(err)
		}
		cw := trace.NewChromeWriter(io.Discard)
		g := gpu.New(cfg, FineReg())
		g.SetTrace(cw)
		if _, err := g.Run(k); err != nil {
			b.Fatal(err)
		}
		if err := cw.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

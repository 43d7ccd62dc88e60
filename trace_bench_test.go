package finereg

// Tracing-overhead benchmarks. Every emission site in the SM tick loop is
// guarded by one nil check, so an untraced run pays that branch and
// nothing else. BenchmarkSimulatorThroughput (bench_test.go) is the
// nil-sink number; BenchmarkTraceNoopSink attaches trace.Noop so every
// site also builds its trace.Event and makes the interface call;
// BenchmarkTraceAggregator and BenchmarkTraceChrome price the real
// consumers.
//
// The fourteen-method Sink against the one-method Sink.Event(Event), 16
// alternating pairs of test binaries at -benchtime 10x on a 2-vCPU Intel
// Xeon, go1.24 (min ms/op, and the median new/old ratio of the pairs with
// its quartiles):
//
//	                               14 methods   Event(Event)   ratio
//	BenchmarkSimulatorThroughput      13.44         13.37      1.00 (0.98–1.02)
//	BenchmarkTraceNoopSink            14.64         15.69      1.07 (1.03–1.09)
//	BenchmarkTraceAggregator          23.52         27.34      1.18 (1.15–1.19)
//
// The untraced run is unchanged. A traced run pays for the Event value: it
// is too wide for registers, so each site assembles it on the stack with
// 8-byte stores and copies it into the call's argument area with 16-byte
// loads, which the CPU cannot forward from those stores. The aggregator
// hashes the event's coordinates at once, which puts that stall on its
// critical path (a CPU profile charges it to the emission line, not to
// the aggregator); Noop overlaps it.

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
		if err := cw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

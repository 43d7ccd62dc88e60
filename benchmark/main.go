// Command benchmark is the repository's measuring stick: four workloads,
// a best-of estimator interleaved over rounds, and per-layer attribution
// taken from outside the packages it measures. See README.md.
//
//	go run ./benchmark -workload sim-issue [-seed N] [-seconds S] [-trace 1] [-out runs.jsonl]
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as package initialization allows.
var processStart = time.Now()

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	outDir   string
}

// Defaults of a hand-run. defaultSeconds is also BENCHMARK.json's
// run_seconds: at 92 acceptance runs (4 + 22 per workload) inside 3420 s it
// leaves room for set-up, the traced runs' extra passes and two builds.
const (
	defaultSeed    = 1
	defaultSeconds = 24
)

// Set-up is repeated and setup_s is the median: at least setupMinRepeats
// times, then until setupBudget is spent, at most setupMaxRepeats times. A
// 40 ms set-up falls wholly inside one host phase; 25 of them do not.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupBudget     = time.Second
)

// repeatSetup times setup over and over and returns each duration. discard
// (optional) releases the previous set-up's product, outside the timing.
// The first duration is taken from process start, so it also covers
// runtime and flag initialization.
func repeatSetup(smoke bool, setup func() error, discard func()) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || time.Since(start) < setupBudget); i++ {
		if smoke && i > 0 {
			break // a correctness pass sets up once
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		} else if discard != nil {
			discard()
			t0 = time.Now()
		}
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	var compare, manifest bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed for schedules, program mutations and micro-driver streams")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed phase")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run (CPU profile, spans, stall pass, micro-drivers): per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "1-SM machine, two short rounds: a correctness pass, not a measurement")
	fs.StringVar(&o.out, "out", "", "append the full run record (provenance, spreads, cells) to this file as one JSON line")
	fs.StringVar(&o.outDir, "outdir", "benchmark/out", "directory for trace files and the service's temporary cache")
	fs.BoolVar(&compare, "compare", false, "compare two run-record files: -compare a.jsonl b.jsonl")
	fs.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as this code defines it (go run ./benchmark -manifest > BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if manifest {
		stdout.Write(manifestJSON())
		return 0
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two run-record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if !slices.Contains(workloadNames(), o.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	o.trace = traceN != 0

	rec, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "benchmark: check failed: %s: %s\n", c.Name, c.Detail)
		}
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "%s seed=%d rounds=%d sim_digest=%s\n", o.workload, o.seed, rec.Provenance.Rounds, rec.SimDigest)
	if err := json.NewEncoder(stdout).Encode(rec.resultLine()); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// anotherRound decides whether a timed phase that has completed the rounds
// in roundWall starts one more. Whole rounds run until the budget is spent:
// a round starts only while the time used plus the last round's length
// still fits, but never fewer than two run (a best-of needs a second
// sample). fixedRounds > 0 (-smoke) runs exactly that many instead.
func anotherRound(roundWall []float64, start time.Time, budget time.Duration, fixedRounds int) bool {
	n := len(roundWall)
	if fixedRounds > 0 {
		return n < fixedRounds
	}
	if n < 2 {
		return true
	}
	last := time.Duration(roundWall[n-1] * float64(time.Second))
	return time.Since(start)+last <= budget
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// check is one correctness assertion made during a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// metricValue is one emitted metric. Rounds carries the spread behind a
// best-of value; it is written to the run record, not the result line.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds *estimate `json:"rounds,omitempty"`
}

// cellReport is one sim-* cell's timing and simulated outcome.
type cellReport struct {
	Bench   string   `json:"bench"`
	Policy  string   `json:"policy"`
	Cycles  int64    `json:"cycles"`
	IPC     float64  `json:"ipc"`
	Seconds estimate `json:"seconds"`
}

// record is everything one run produced; -out appends it as a JSON line.
type record struct {
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	SimDigest  string                 `json:"sim_digest"`
	Metrics    map[string]metricValue `json:"metrics"`
	Cells      []cellReport           `json:"cells,omitempty"`
	Checks     []check                `json:"checks"`
}

// outcome is what a workload hands back to execute.
type outcome struct {
	attempted, failed int
	rounds            int
	setupSeconds      []float64
	simDigest         string
	e2e               map[string]metricValue // without peak_rss_mb and setup_s
	layer             map[string]float64     // traced runs only
	cells             []cellReport
	checks            []check
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

// execute runs one workload and assembles its record.
func execute(o options) (*record, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		out *outcome
		err error
	)
	if o.workload == "serve-mix" {
		out, err = runServeMix(o)
	} else {
		out, err = runSim(o)
	}
	if err != nil {
		return nil, err
	}

	rec := &record{
		Provenance: collectProvenance(o, out.rounds),
		Attempted:  out.attempted,
		Failed:     out.failed,
		SimDigest:  out.simDigest,
		Metrics:    map[string]metricValue{},
		Cells:      out.cells,
		Checks:     out.checks,
	}
	rec.Correct = out.failed == 0 && out.attempted > 0
	for _, c := range out.checks {
		rec.Correct = rec.Correct && c.OK
	}

	if o.trace {
		for _, d := range perLayer {
			rec.Metrics[d.Name] = metricValue{Value: out.layer[d.Name], Unit: d.Unit}
		}
		return rec, nil
	}
	out.e2e["peak_rss_mb"] = metricValue{Value: peakRSSMB()}
	setup := bestOf(out.setupSeconds, false)
	out.e2e["setup_s"] = metricValue{Value: setup.Median, Rounds: &setup}
	for _, d := range endToEnd {
		v, ok := out.e2e[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce %s", o.workload, d.Name)
		}
		v.Unit = d.Unit
		rec.Metrics[d.Name] = v
	}
	return rec, nil
}

// resultLine is the contract's last line of standard output: exactly
// correct, attempted, failed and metrics, each metric a value and a unit.
func (r *record) resultLine() map[string]any {
	metrics := make(map[string]map[string]any, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters snapshots the allocation and GC counters a phase is charged.
type memCounters struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseNs           uint64
}

func readMemCounters() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.gcPauseNs - b.gcPauseNs}
}

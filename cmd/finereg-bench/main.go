// finereg-bench measures the run engine's parallel and cached speedup on
// the quick sweep and writes the result as JSON (scripts/bench_sweep.sh
// wraps it to produce BENCH_sweep.json).
//
// Usage:
//
//	finereg-bench [-jobs 4] [-benches CS,FD,LB,LI] [-out BENCH_sweep.json]
//	finereg-bench -hotpath [-out BENCH_hotpath.json]
//
// Three timings of the same sweep: serial (1 worker, cold), parallel
// (-jobs workers, cold), and cached (any workers, warm cache). The
// rendered tables of the serial and parallel runs are byte-compared — the
// engine's determinism guarantee — and the comparison result is recorded.
//
// -hotpath switches to the single-thread simulator-throughput benchmark:
// one CS run per policy at the quick scale (4 SMs, grid 256) and at the
// paper scale (16 SMs, reference grid), best of three, reporting simulated
// cycles per wall-clock second. This is the number the event-driven core
// optimizes; scripts/bench_sweep.sh records it as BENCH_hotpath.json.
//
// -cpuprofile and -memprofile write pprof profiles covering the measured
// runs; see EXPERIMENTS.md for the analysis workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"finereg"
	"finereg/internal/experiments"
	"finereg/internal/gpu"
	"finereg/internal/prof"
	"finereg/internal/runner"
	"finereg/internal/trace"
)

type report struct {
	Date       string   `json:"date"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Jobs       int      `json:"jobs"`
	Benches    []string `json:"benches"`

	JobsPerSweep int `json:"jobs_per_sweep"`

	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	CachedSeconds   float64 `json:"cached_seconds"`

	ParallelSpeedup float64 `json:"parallel_speedup"`
	CacheSpeedup    float64 `json:"cache_speedup"`

	ByteIdentical bool `json:"byte_identical"`
}

// hotpathRow is one policy × machine-scale throughput measurement.
type hotpathRow struct {
	Scale        string  `json:"scale"`
	SMs          int     `json:"sms"`
	Policy       string  `json:"policy"`
	Bench        string  `json:"bench"`
	Grid         int     `json:"grid"`
	Cycles       int64   `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

type hotpathReport struct {
	Date     string          `json:"date"`
	GOOS     string          `json:"goos"`
	GOARCH   string          `json:"goarch"`
	NumCPU   int             `json:"num_cpu"`
	Reps     int             `json:"reps"`
	Rows     []hotpathRow    `json:"rows"`
	Progress hotpathOverhead `json:"progress"`
}

// hotpathOverhead is the observability tax measurement: the quick-4sm
// finereg cell timed with in-run progress sampling off and on (no-op
// callback at the default period). OnOverOff should sit within run-to-run
// noise of 1.0 — the sampler piggybacks on the event schedule and adds no
// work between samples.
type hotpathOverhead struct {
	SampleEvery     int64   `json:"sample_every"`
	OffCyclesPerSec float64 `json:"off_cycles_per_sec"`
	OnCyclesPerSec  float64 `json:"on_cycles_per_sec"`
	OnOverOff       float64 `json:"on_over_off"`
}

func main() {
	var (
		jobs       = flag.Int("jobs", 4, "worker count for the parallel run")
		benches    = flag.String("benches", "CS,FD,LB,LI", "benchmark subset for the sweep")
		out        = flag.String("out", "BENCH_sweep.json", "output JSON path ('-' = stdout)")
		hotpath    = flag.Bool("hotpath", false, "measure raw simulator throughput per policy instead of the engine sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the measured runs to this file")
	)
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-bench:", err)
		os.Exit(1)
	}

	if *hotpath {
		if !outSet {
			*out = "BENCH_hotpath.json"
		}
		r := runHotpath()
		finishProfile(stopProf)
		writeJSON(*out, r)
		fmt.Fprintf(os.Stderr, "finereg-bench: hotpath (%d rows, best of %d) -> %s\n",
			len(r.Rows), r.Reps, *out)
		return
	}

	opts := experiments.Quick()
	opts.Benchmarks = strings.Split(*benches, ",")

	sweep := func(eng *runner.Engine) (string, float64) {
		opts.Runner = eng
		start := time.Now()
		s, err := experiments.RunSweep(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "finereg-bench:", err)
			os.Exit(1)
		}
		secs := time.Since(start).Seconds()
		return experiments.Figure13(s).Render(), secs
	}

	r := report{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       *jobs,
		Benches:    opts.Benchmarks,
	}

	serialTbl, serialSecs := sweep(&runner.Engine{Jobs: 1})
	parTbl, parSecs := sweep(&runner.Engine{Jobs: *jobs})

	warm := &runner.Engine{Jobs: *jobs, Cache: runner.NewCache("")}
	if _, prime := sweep(warm); prime <= 0 {
		fmt.Fprintln(os.Stderr, "finereg-bench: implausible priming time")
		os.Exit(1)
	}
	_, cachedSecs := sweep(warm)
	r.JobsPerSweep = int(warm.Stats().Submitted) / 2

	r.SerialSeconds = serialSecs
	r.ParallelSeconds = parSecs
	r.CachedSeconds = cachedSecs
	r.ParallelSpeedup = serialSecs / parSecs
	r.CacheSpeedup = serialSecs / cachedSecs
	r.ByteIdentical = serialTbl == parTbl
	if !r.ByteIdentical {
		fmt.Fprintln(os.Stderr, "finereg-bench: WARNING: serial and parallel tables differ")
	}
	finishProfile(stopProf)

	writeJSON(*out, r)
	fmt.Fprintf(os.Stderr, "finereg-bench: %d jobs/sweep on %d CPUs: serial %.1fs, parallel(%d) %.1fs (%.2fx), cached %.3fs (%.0fx) -> %s\n",
		r.JobsPerSweep, r.NumCPU, serialSecs, *jobs, parSecs, r.ParallelSpeedup, cachedSecs, r.CacheSpeedup, *out)
}

// hotpathReps is the repetition count per cell; the minimum wall time wins
// (standard throughput practice — the runs are deterministic, so spread
// between reps is pure scheduler noise).
const hotpathReps = 3

// runHotpath times one CS simulation per policy at two machine scales on a
// single goroutine — the raw cycle-loop throughput, with no run-engine
// parallelism to muddy attribution.
func runHotpath() hotpathReport {
	scales := []struct {
		name string
		cfg  finereg.Config
		grid int
	}{
		{"quick-4sm", finereg.ScaledConfig(4), 256},
		{"paper-16sm", finereg.DefaultConfig(), 0},
	}
	policies := []struct {
		name string
		pf   finereg.PolicyFactory
	}{
		{"baseline", finereg.Baseline()},
		{"vt", finereg.VirtualThread()},
		{"regdram", finereg.RegDRAM(4)},
		{"regmutex", finereg.VTRegMutex(0.25)},
		{"finereg", finereg.FineReg()},
	}
	r := hotpathReport{
		Date:   time.Now().UTC().Format(time.RFC3339),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Reps:   hotpathReps,
	}
	for _, sc := range scales {
		for _, pol := range policies {
			var cycles int64
			best := 0.0
			for rep := 0; rep < hotpathReps; rep++ {
				start := time.Now()
				m, err := finereg.RunBenchmark(sc.cfg, "CS", sc.grid, pol.pf)
				secs := time.Since(start).Seconds()
				if err != nil {
					fmt.Fprintf(os.Stderr, "finereg-bench: hotpath %s/%s: %v\n", sc.name, pol.name, err)
					os.Exit(1)
				}
				cycles = m.Cycles
				if rep == 0 || secs < best {
					best = secs
				}
			}
			r.Rows = append(r.Rows, hotpathRow{
				Scale:        sc.name,
				SMs:          sc.cfg.NumSMs,
				Policy:       pol.name,
				Bench:        "CS",
				Grid:         sc.grid,
				Cycles:       cycles,
				Seconds:      best,
				CyclesPerSec: float64(cycles) / best,
			})
		}
	}
	r.Progress = runProgressOverhead()
	return r
}

// runProgressOverhead times the quick-4sm finereg cell with progress
// sampling off and with a no-op callback on, best of hotpathReps each,
// and reports the on/off throughput ratio.
func runProgressOverhead() hotpathOverhead {
	time1 := func(cfg finereg.Config) float64 {
		var cycles int64
		best := 0.0
		for rep := 0; rep < hotpathReps; rep++ {
			start := time.Now()
			m, err := finereg.RunBenchmark(cfg, "CS", 256, finereg.FineReg())
			secs := time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "finereg-bench: progress overhead: %v\n", err)
				os.Exit(1)
			}
			cycles = m.Cycles
			if rep == 0 || secs < best {
				best = secs
			}
		}
		return float64(cycles) / best
	}
	off := finereg.ScaledConfig(4)
	on := finereg.ScaledConfig(4)
	on.Progress = func(trace.ProgressSample) {}
	ov := hotpathOverhead{
		SampleEvery:     gpu.DefaultProgressEvery,
		OffCyclesPerSec: time1(off),
		OnCyclesPerSec:  time1(on),
	}
	ov.OnOverOff = ov.OnCyclesPerSec / ov.OffCyclesPerSec
	return ov
}

func finishProfile(stop func() error) {
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "finereg-bench:", err)
		os.Exit(1)
	}
}

func writeJSON(out string, v any) {
	b, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-bench:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "finereg-bench:", err)
		os.Exit(1)
	}
}

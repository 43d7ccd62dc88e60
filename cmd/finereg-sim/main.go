// finereg-sim runs one or more Table II benchmarks under one or more GPU
// configurations and prints per-run metrics. It is the low-level driver;
// finereg-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	finereg-sim [-bench CS,LB | all] [-policy baseline,vt,regdram,regmutex,finereg | all]
//	            [-program file.sasm | -program bench:XX]
//	            [-sms 16] [-grid-scale 1.0] [-srp 0.25] [-dram-cap 4] [-v]
//	            [-json | -csv] [-stalls] [-audit] [-audit-collect]
//	            [-jobs N] [-cache-dir ''] [-no-cache] [-job-timeout 0]
//	            [-progress] [-progress-every N]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -program runs a user-supplied .sasm file (the internal/isa assembly
// dialect; launch geometry comes from the source's .warps/.shmem/.grid
// directives) instead of the built-in benchmarks, through the same
// ingestion loader the serving stack uses — the run is byte-identical to
// submitting the same source via POST /v1/jobs. -program bench:XX
// references a built-in Table II benchmark instead of reading a file.
//
// -json and -csv replace the table with machine-readable output on stdout
// (one record per benchmark × policy run, derived ratios included).
// -stalls attaches the stall-attribution tracer to every run so the
// records carry the warp-slot cycle breakdown (small simulation slowdown,
// no timing change).
//
// -progress renders a live status line on stderr — jobs done plus
// cumulative simulated cycles and the live sim-cycles/s rate, sampled
// in-run every -progress-every simulated cycles (default
// gpu.DefaultProgressEvery). Sampling is observation only: results and
// cache keys are byte-identical with it on or off.
//
// Runs are scheduled through the run engine (internal/runner): -jobs sets
// the worker count (default GOMAXPROCS), -cache-dir enables the on-disk
// result cache (off by default for this low-level driver — pass a
// directory, e.g. .finereg-cache, to share results with finereg-experiments).
// Rows always print in bench × policy order regardless of worker count. A
// failing run no longer aborts the whole sweep: completed rows print, the
// failures are reported on stderr, and the exit status is non-zero.
//
// -cpuprofile and -memprofile write pprof profiles covering the simulation
// batch (not flag parsing or output rendering); see EXPERIMENTS.md for the
// analysis workflow.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"finereg/internal/audit"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/prof"
	"finereg/internal/runner"
	"finereg/internal/stats"
	"finereg/internal/trace"
	"finereg/internal/workload"
)

func main() {
	var ef runner.Flags
	ef.Register(flag.CommandLine, "")
	var (
		benchFlag   = flag.String("bench", "all", "comma-separated benchmark abbreviations, or 'all'")
		policyFlag  = flag.String("policy", "all", "comma-separated policies: baseline,vt,regdram,regmutex,finereg, or 'all'")
		programFlag = flag.String("program", "", "run a user .sasm program file (or bench:XX) instead of the built-in benchmarks")
		sms         = flag.Int("sms", 16, "number of SMs (shared resources scale proportionally)")
		gridScale   = flag.Float64("grid-scale", 0, "grid-size scale factor (default: sms/16)")
		srp         = flag.Float64("srp", runner.DefaultSRPFrac, "RegMutex SRP fraction of the register file")
		dramCap     = flag.Int("dram-cap", runner.DefaultDRAMCap, "Reg+DRAM off-chip pending CTAs per SM")
		verbose     = flag.Bool("v", false, "print extended metrics")
		jsonOut     = flag.Bool("json", false, "emit metrics as a JSON array instead of the table")
		csvOut      = flag.Bool("csv", false, "emit metrics as CSV instead of the table")
		stalls      = flag.Bool("stalls", false, "trace each run and attach the stall-cycle breakdown")
		auditRuns   = flag.Bool("audit", false, "enable the runtime invariant auditor on every run (internal/audit)")
		auditAll    = flag.Bool("audit-collect", false, "audit in collect-all mode: gather every violation and summarize at the end instead of aborting at the first (implies -audit)")
		progress    = flag.Bool("progress", false, "render a live stderr status line with in-run simulation progress")
		progEvery   = flag.Int64("progress-every", 0, "in-run sample period in simulated cycles (0 = default; needs -progress)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the simulation batch to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken after the simulation batch to this file")
	)
	flag.Parse()

	cfg := gpu.Default().Scale(*sms)
	cfg.Audit = *auditRuns || *auditAll
	cfg.AuditCollect = *auditAll

	benches := kernels.Names()
	if *benchFlag != "all" {
		benches = strings.Split(*benchFlag, ",")
	}
	polNames := runner.PolicyKinds()
	if *policyFlag != "all" {
		polNames = strings.Split(*policyFlag, ",")
	}
	policies := make([]runner.PolicySpec, len(polNames))
	for i, name := range polNames {
		polNames[i] = strings.TrimSpace(name)
		spec, err := runner.ParsePolicy(polNames[i], *srp, *dramCap)
		check(err)
		policies[i] = spec
	}

	eng := ef.Engine()
	if *progress {
		line := trace.NewProgress(os.Stderr)
		eng.Events = line
		eng.ProgressEvery = *progEvery
		if eng.ProgressEvery <= 0 {
			eng.ProgressEvery = gpu.DefaultProgressEvery
		}
		defer line.Close()
	}

	// The workload half of every job: the program, or each bench.
	var work []runner.Job
	if *programFlag != "" {
		prog, name, err := programSpec(*programFlag)
		check(err)
		work = []runner.Job{{Programs: []workload.Program{prog}, Label: name}}
	} else {
		for _, b := range benches {
			p, err := kernels.ProfileByName(strings.TrimSpace(b))
			check(err)
			work = append(work, runner.Job{Profile: p, Grid: p.ScaledGrid(*gridScale, *sms), Label: p.Abbrev})
		}
	}
	var jobList []*runner.Job
	for _, w := range work {
		for i, pol := range policies {
			j := w
			j.Cfg, j.Policy, j.Stalls, j.Label = cfg, pol, *stalls, w.Label+"/"+polNames[i]
			// Same admission gate as the service path: a malformed program
			// fails here with the assembler's line/column, a bad grid or
			// geometry with its reason, not mid-run.
			check(j.Validate())
			jobList = append(jobList, &j)
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	check(err)
	batch := eng.Run(jobList)
	check(stopProf())

	tbl := &stats.Table{Header: []string{"bench/policy", "IPC", "cycles", "resident", "active", "switches", "dramKB"}}
	var runs []*stats.Metrics
	for i, j := range jobList {
		if batch.Errs[i] != nil {
			continue
		}
		m := batch.Results[i].Metrics
		runs = append(runs, m)
		tbl.AddRow(j.Label,
			m.IPC(), m.Cycles, m.AvgResidentCTAs, m.AvgActiveCTAs, m.CTASwitches, m.DRAMBytes()>>10)
		if *verbose {
			fmt.Printf("# %s: L1 %.1f%% miss, L2 %.1f%% miss, depletion %d cyc, first-stall %.0f cyc, ctx %d KB\n",
				j.Label, 100*m.L1MissRate(), 100*m.L2MissRate(),
				m.RegDepletionStallCycles, m.CyclesToFirstStall, m.DRAMContextBytes>>10)
		}
	}
	switch {
	case *jsonOut:
		check(stats.WriteJSON(os.Stdout, runs))
	case *csvOut:
		check(stats.WriteCSV(os.Stdout, runs))
	default:
		fmt.Print(tbl)
	}

	// Partial-sweep reporting: every run that completed has been printed;
	// failures are listed individually and reflected in the exit status.
	if failed := batch.Failed(); len(failed) > 0 {
		for _, i := range failed {
			var vs *audit.ViolationSet
			if errors.As(batch.Errs[i], &vs) {
				// Collect-mode verdict: the per-rule summary reads better
				// than the wrapped error chain.
				fmt.Fprintf(os.Stderr, "finereg-sim: %s: %s\n", jobList[i].Label, vs.Summary())
				continue
			}
			fmt.Fprintf(os.Stderr, "finereg-sim: %v\n", batch.Errs[i])
		}
		fmt.Fprintf(os.Stderr, "finereg-sim: %d/%d runs failed\n", len(failed), len(jobList))
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-sim:", err)
		os.Exit(1)
	}
}

// programSpec turns -program into a workload spec plus a display name.
// The entry is a .sasm file path or bench:XX for a built-in benchmark; a
// file is read here, so the job carries the source text and runs through
// the exact loader the serving stack uses.
func programSpec(entry string) (workload.Program, string, error) {
	if b, ok := strings.CutPrefix(entry, "bench:"); ok {
		return workload.Program{Bench: b}, b, nil
	}
	text, err := os.ReadFile(entry)
	if err != nil {
		return workload.Program{}, "", err
	}
	return workload.Program{Source: string(text)}, strings.TrimSuffix(filepath.Base(entry), filepath.Ext(entry)), nil
}

// finereg-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	finereg-experiments [-only t2,f2,f3,f4,f5,t3,f12,f13,f14,f15,f16,f17,f18,f19,abl,stalls,mps]
//	                    [-sms 16] [-grid-scale 1.0] [-quick] [-audit] [-audit-collect]
//	                    [-jobs N] [-cache-dir .finereg-cache] [-no-cache]
//	                    [-job-timeout 0] [-server http://host:8321]
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record.
//
// All simulations run through one shared run engine (internal/runner): a
// worker pool (-jobs, default GOMAXPROCS) with a content-addressed result
// cache (-cache-dir, default .finereg-cache). The cache dedups repeated
// points both within a run (the Figure 12/13/16 sweep points, the stall
// probes that coincide with sweep candidates) and across invocations; a
// rerun of an already-computed figure is nearly free. -no-cache keeps
// results in memory only — points still dedup within the invocation, but
// nothing is read from or written to disk. Progress and a final scheduling
// summary go to stderr; the tables stay on stdout.
//
// With -server the same engine executes on a finereg-serve instance: every
// flag above keeps its meaning, in front of the server — a cached figure
// never touches the network — except that -jobs bounds submissions in
// flight (default 64) rather than local simulations. The tables are
// byte-identical either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"finereg/internal/experiments"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/trace"
)

// experimentIDs lists the valid -only ids in presentation order.
var experimentIDs = []string{
	"t2", "f2", "f3", "f4", "f5", "t3",
	"f12", "f13", "f14", "f15", "f16", "f17", "f18", "f19",
	"abl", "stalls", "mps",
}

func main() {
	var ef runner.Flags
	ef.Register(flag.CommandLine, ".finereg-cache")
	var (
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		sms       = flag.Int("sms", 16, "number of SMs")
		gridScale = flag.Float64("grid-scale", 1.0, "workload grid scale")
		quick     = flag.Bool("quick", false, "use the 4-SM quick configuration")
		auditRuns = flag.Bool("audit", false, "enable the runtime invariant auditor on every simulation")
		auditAll  = flag.Bool("audit-collect", false, "audit in collect-all mode: summarize every violation at the end instead of aborting at the first (implies -audit)")
		server    = flag.String("server", "", "run simulations on a finereg-serve instance (e.g. http://localhost:8321) instead of in-process")
	)
	flag.Parse()

	opts := experiments.Options{SMs: *sms, GridScale: *gridScale}
	if *quick {
		opts = experiments.Quick()
	}
	opts.Audit = *auditRuns || *auditAll
	opts.AuditCollect = *auditAll

	valid := map[string]bool{}
	for _, id := range experimentIDs {
		valid[id] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !valid[id] {
				fmt.Fprintf(os.Stderr, "finereg-experiments: unknown experiment id %q (valid: %s)\n",
					id, strings.Join(experimentIDs, ","))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	// One engine for the whole invocation: every figure shares the worker
	// pool, the cache, and the progress line, so points repeated across
	// figures — the sweep feeding Figures 12/13/16, the stall probes that
	// coincide with sweep candidates — simulate at most once.
	progress := trace.NewProgress(os.Stderr)
	eng := ef.Engine()
	eng.Events = progress
	opts.Runner = eng
	if *server != "" {
		// The server is the engine's executor, behind its cache, coalescing,
		// timeout and progress line. -jobs then bounds blocked HTTP waits,
		// not simulations; GOMAXPROCS of them would starve a server with
		// more workers than this host has cores.
		eng.Exec = (&serve.Client{Base: strings.TrimRight(*server, "/")}).Execute
		if eng.Jobs <= 0 {
			eng.Jobs = serve.DefaultQueueCap
		}
	}

	run := func(id, title string, f func() (interface{ Render() string }, error)) {
		if !selected(id) {
			return
		}
		start := time.Now()
		r, err := f()
		progress.Close()
		check(err)
		fmt.Printf("==== %s (%s) ====\n%s\n", id, title, r.Render())
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	run("t2", "Table II: benchmark classification", func() (interface{ Render() string }, error) {
		return experiments.TableII(), nil
	})
	run("f2", "Figure 2: resource scaling", func() (interface{ Render() string }, error) {
		return experiments.Figure2(opts)
	})
	run("f3", "Figure 3: per-CTA overhead", func() (interface{ Render() string }, error) {
		return experiments.Figure3(), nil
	})
	run("f4", "Figure 4: CS case study", func() (interface{ Render() string }, error) {
		return experiments.Figure4(opts)
	})
	run("f5", "Figure 5: register usage windows", func() (interface{ Render() string }, error) {
		return experiments.Figure5(opts)
	})
	run("t3", "Table III: cycles to full stall", func() (interface{ Render() string }, error) {
		return experiments.TableIII(opts)
	})
	// The sweep figures each re-request the full sweep; the engine's cache
	// collapses the repeats, so the simulations behind Figures 12/13/16 run
	// once no matter how many of the three are selected (the old lazy
	// singleton, without the cross-invocation reuse).
	run("f12", "Figure 12: concurrent CTAs", func() (interface{ Render() string }, error) {
		s, err := experiments.RunSweep(opts)
		if err != nil {
			return nil, err
		}
		return experiments.Figure12(s), nil
	})
	run("f13", "Figure 13: normalized IPC", func() (interface{ Render() string }, error) {
		s, err := experiments.RunSweep(opts)
		if err != nil {
			return nil, err
		}
		return experiments.Figure13(s), nil
	})
	run("f14", "Figure 14: SRP ratio and depletion stalls", func() (interface{ Render() string }, error) {
		return experiments.Figure14(opts)
	})
	run("f15", "Figure 15: memory traffic", func() (interface{ Render() string }, error) {
		return experiments.Figure15(opts)
	})
	run("f16", "Figure 16: energy", func() (interface{ Render() string }, error) {
		s, err := experiments.RunSweep(opts)
		if err != nil {
			return nil, err
		}
		return experiments.Figure16(s), nil
	})
	run("f17", "Figure 17: ACRF/PCRF split sensitivity", func() (interface{ Render() string }, error) {
		return experiments.Figure17(opts)
	})
	run("f18", "Figure 18: SM scaling", func() (interface{ Render() string }, error) {
		counts := []int{16, 32, 64, 128}
		if *quick {
			counts = []int{4, 8, 16}
		}
		return experiments.Figure18(opts, counts)
	})
	run("f19", "Figure 19: unified on-chip memory", func() (interface{ Render() string }, error) {
		return experiments.Figure19(opts)
	})
	run("abl", "Ablations: FineReg design choices", func() (interface{ Render() string }, error) {
		return experiments.Ablations(opts)
	})
	run("stalls", "Stall attribution: warp-slot cycle breakdown", func() (interface{ Render() string }, error) {
		return experiments.StallBreakdowns(opts, nil)
	})
	run("mps", "MPS co-scheduling: multi-tenant interference", func() (interface{ Render() string }, error) {
		return experiments.MPS(opts, nil)
	})

	progress.Close()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "engine: %d submitted, %d simulated, %d cache hits (%d disk), %d deduped in flight (cache: %s)\n",
		st.Submitted, st.Executed, st.CacheHits, st.DiskHits, st.Deduped, eng.Cache.Stats())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-experiments:", err)
		os.Exit(1)
	}
}

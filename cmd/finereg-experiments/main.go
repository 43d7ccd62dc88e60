// finereg-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	finereg-experiments [-only id,id,...] [-sms 16] [-grid-scale 1.0] [-quick]
//	                    [-audit] [-audit-collect]
//	                    [-jobs N] [-cache-dir .finereg-cache] [-no-cache]
//	                    [-job-timeout 0] [-server http://host:8321]
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. The ids are those of
// experiments.Artifacts, in its order; an unknown one (-only x) lists them.
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
	"slices"
	"strings"
	"time"

	"finereg/internal/experiments"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/trace"
)

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

	arts := experiments.Artifacts()
	ids := make([]string, len(arts))
	for i, a := range arts {
		ids[i] = a.ID
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "finereg-experiments: unknown experiment id %q (valid: %s)\n",
					id, strings.Join(ids, ","))
				os.Exit(2)
			}
			want[id] = true
		}
	}

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

	for _, a := range arts {
		if len(want) > 0 && !want[a.ID] {
			continue
		}
		start := time.Now()
		r, err := a.Run(opts)
		progress.Close()
		check(err)
		fmt.Printf("==== %s (%s) ====\n%s\n", a.ID, a.Title, r.Render())
		fmt.Printf("(%s in %.1fs)\n\n", a.ID, time.Since(start).Seconds())
	}

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

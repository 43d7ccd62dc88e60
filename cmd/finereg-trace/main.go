// finereg-trace runs one Table II benchmark under one GPU configuration
// with cycle-level tracing attached, writes a Chrome trace-event JSON file
// (open it at https://ui.perfetto.dev or chrome://tracing), and prints the
// stall-attribution breakdown plus a per-CTA timeline summary.
//
// Usage:
//
//	finereg-trace -bench CS [-config finereg] [-out trace.json]
//	              [-sms 16] [-grid-scale 1.0] [-srp 0.25] [-dram-cap 4]
//	              [-timeline 10]
package main

import (
	"flag"
	"fmt"
	"os"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/trace"
)

func main() {
	var (
		bench     = flag.String("bench", "", "benchmark abbreviation (required; see -list)")
		config    = flag.String("config", "finereg", "policy: baseline, vt, regdram, regmutex, finereg")
		out       = flag.String("out", "trace.json", "Chrome trace output path ('' disables the trace file)")
		sms       = flag.Int("sms", 16, "number of SMs (shared resources scale proportionally)")
		gridScale = flag.Float64("grid-scale", 0, "grid-size scale factor (default: sms/16)")
		srp       = flag.Float64("srp", runner.DefaultSRPFrac, "RegMutex SRP fraction of the register file")
		dramCap   = flag.Int("dram-cap", runner.DefaultDRAMCap, "Reg+DRAM off-chip pending CTAs per SM")
		timeline  = flag.Int("timeline", 10, "per-CTA timeline rows to print (0 disables)")
		list      = flag.Bool("list", false, "list benchmark abbreviations and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range kernels.Names() {
			fmt.Println(n)
		}
		return
	}
	if *bench == "" {
		check(fmt.Errorf("-bench is required (use -list for choices)"))
	}

	spec, err := runner.ParsePolicy(*config, *srp, *dramCap)
	check(err)
	pf, err := spec.Factory()
	check(err)
	prof, err := kernels.ProfileByName(*bench)
	check(err)
	k, err := kernels.Build(prof, prof.ScaledGrid(*gridScale, *sms))
	check(err)

	agg := trace.NewStallAggregator()
	sink := trace.Sink(agg)
	var cw *trace.ChromeWriter
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		cw = trace.NewChromeWriter(f)
		sink = trace.Multi(cw, agg)
	}

	g := gpu.New(gpu.Default().Scale(*sms), pf)
	g.SetTrace(sink)
	m, err := g.Run(k)
	check(err)
	if cw != nil {
		if err := cw.Close(); err != nil {
			check(fmt.Errorf("writing %s: %w", *out, err))
		}
		fmt.Printf("trace written to %s (open at https://ui.perfetto.dev)\n\n", *out)
	}

	fmt.Println(m)
	fmt.Println()

	b := agg.Breakdown()
	m.Stalls = b
	if err := b.Check(); err != nil {
		check(fmt.Errorf("stall accounting invariant violated: %w", err))
	}
	fmt.Println("Stall attribution (every warp-slot cycle, bucketed):")
	fmt.Print(b.Table())

	if *timeline > 0 {
		fmt.Printf("\nPer-CTA timelines (top %d by resident time, of %d CTAs):\n",
			*timeline, len(agg.Timelines()))
		fmt.Print(agg.TimelineTable(*timeline))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-trace:", err)
		os.Exit(1)
	}
}

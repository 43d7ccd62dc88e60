// finereg-liveness dumps the compiler-side view of a kernel: its
// disassembly, control-flow graph, post-dominator reconvergence points,
// and the per-PC live-register bit vectors the FineReg RMU consumes.
//
//	finereg-liveness [-bench CS | -program file.sasm] [-emit-asm]
//
// -program (alias -asm) analyzes a user .sasm file through the same
// ingestion loader the simulator and the serving stack use, so what this
// tool prints — and the errors it reports, with the assembler's
// line/column — is exactly what a submitted job would see.
package main

import (
	"flag"
	"fmt"
	"os"

	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/workload"
)

func main() {
	bench := flag.String("bench", "CS", "Table II benchmark abbreviation")
	asmFile := flag.String("asm", "", "analyze a .sasm file instead of a built-in benchmark")
	programFile := flag.String("program", "", "alias for -asm")
	emitAsm := flag.Bool("emit-asm", false, "print the kernel in assembly format and exit")
	flag.Parse()

	file := *asmFile
	if file == "" {
		file = *programFile
	}
	var k *kernels.Kernel
	if file != "" {
		text, err := os.ReadFile(file)
		check(err)
		// The service-path loader: assemble, validate, liveness-analyze,
		// derive the occupancy profile.
		k, err = (&workload.Program{Source: string(text)}).Load(kernels.Limits{})
		check(err)
	} else {
		prof, err := kernels.ProfileByName(*bench)
		check(err)
		k = kernels.MustBuild(prof, 1)
	}
	if *emitAsm {
		fmt.Print(isa.EmitAsm(k.Prog))
		return
	}
	if file != "" {
		p := &k.Profile
		fmt.Printf("kernel %s: %d warps/CTA, %d regs/thread, %d B shared/CTA, grid %d CTAs\n\n",
			p.Abbrev, p.WarpsPerCTA, p.Regs, p.SharedMem, k.GridCTAs)
	}
	fmt.Print(isa.Disassemble(k.Prog))
	fmt.Println()

	g, err := liveness.BuildCFG(k.Prog)
	check(err)
	fmt.Print(g.String())
	pdom := g.PostDominators()
	fmt.Print("post-dominators: ")
	for i, d := range pdom {
		fmt.Printf("B%d->B%d ", i, d)
	}
	fmt.Println()
	fmt.Println()

	info := k.Live
	fmt.Println("per-PC live-register bit vectors (what a stalled warp must preserve):")
	for pc := 0; pc < k.Prog.Len(); pc++ {
		fmt.Printf("/*%04X*/ %2d live %v\n", pc*8, info.LiveCount(pc), info.At(pc))
	}
	fmt.Printf("\nmax live %d / mean live %.1f of %d allocated registers\n",
		info.MaxLive(), info.MeanLive(), k.Prog.RegsPerThread)
	fmt.Printf("off-chip bit-vector table: %d bytes (12 B x %d static instructions)\n",
		info.BitVectorBytes(), k.Prog.Len())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "finereg-liveness:", err)
		os.Exit(1)
	}
}

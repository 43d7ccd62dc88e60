// Vecadd demonstrates the functional side of the stack: a kernel written
// in the SASS-like ISA is disassembled, run through the compiler's
// live-register analysis (the information FineReg's RMU consumes), and
// then executed for real on the functional SIMT machine with results
// verified against a CPU loop.
//
//	go run ./examples/vecadd
package main

import (
	"fmt"
	"log"

	"finereg/examples/vecadd/exec"
	"finereg/internal/liveness"
)

func main() {
	const n = 1024 // 32 warps of work
	baseA, baseB, baseC := uint32(0), uint32(4*n), uint32(8*n)
	prog := exec.VecAdd(baseA, baseB, baseC)

	fmt.Println(prog.Name, "— disassembly with per-PC live registers:")
	info, err := liveness.Analyze(prog)
	if err != nil {
		log.Fatal(err)
	}
	for pc := 0; pc < prog.Len(); pc++ {
		fmt.Printf("/*%04X*/  %-28s live-in: %v\n", pc*8, prog.At(pc).String(), info.At(pc))
	}
	fmt.Printf("\nmax live registers: %d of %d allocated (FineReg would park %.0f%% of this warp's registers)\n\n",
		info.MaxLive(), prog.RegsPerThread,
		100*(1-float64(info.MaxLive())/float64(prog.RegsPerThread)))

	m := &exec.Machine{Mem: make([]byte, 12*n)}
	for i := 0; i < n; i++ {
		m.WriteF32(int(baseA)+4*i, float32(i))
		m.WriteF32(int(baseB)+4*i, float32(2*i))
	}
	if err := m.Launch(prog, 4, 256); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float32(i) + float32(2*i)
		if got := m.ReadF32(int(baseC) + 4*i); got != want {
			log.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
	fmt.Printf("executed %d threads across 4 CTAs: all %d results verified ✓\n", n, n)
}

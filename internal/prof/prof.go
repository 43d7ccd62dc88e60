// Package prof wires the standard pprof profilers into cmd/finereg-sim:
// one Start call after flag parsing, one stop call once the interesting
// work is done. Both profiles are
// optional and independent; EXPERIMENTS.md documents the analysis
// workflow (go tool pprof over the simulator hot path).
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges a heap profile at
// memPath; either may be empty to disable that profile. The returned stop
// function finalizes both files and must be called exactly once — call it
// right after the measured work, not via defer past an os.Exit.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			return pprof.WriteHeapProfile(f)
		}
		return nil
	}, nil
}

package runner

import (
	"fmt"
	"math"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/mem"
)

// Validate checks that the job is well-formed enough to admit into a batch:
// the policy spec resolves to a factory, the kernel profile fits the
// configured SM, and the machine geometry is constructible. It exists for
// the serving layer (internal/serve), which accepts jobs from the network
// and must reject garbage with a 400 instead of burning a worker on a
// panic, but it is equally useful before submitting a long batch.
//
// The workload is built here, through the process-wide program table
// (kernels.Generate, workload.Program.Load): a profile the generator refuses,
// or malformed source (with the assembler's line/column), is a 400 at
// admission, never a failure inside a worker, and Simulate then runs the
// very program value admission built. A warm lookup allocates nothing, so
// this runs on every submission; no machine is built. A job that passes
// may still fail at run time; a job that fails is guaranteed not to
// simulate.
func (j *Job) Validate() error {
	if _, err := j.Policy.Factory(); err != nil {
		return fmt.Errorf("runner: invalid job policy: %w", err)
	}
	if len(j.Programs) > 0 {
		if err := j.validateProgram(); err != nil {
			return err
		}
	} else if err := j.validateProfile(); err != nil {
		return err
	}
	return j.validateMachine()
}

// validateProgram admits a Programs workload: its one program must
// assemble and validate (so untrusted network input 400s at admission
// instead of panicking a worker) and fit the configured SM.
func (j *Job) validateProgram() error {
	if j.Profile != (kernels.Profile{}) || j.Grid != 0 {
		return fmt.Errorf("runner: a job carries either programs or a profile/grid, not both")
	}
	k, err := j.kernel()
	if err != nil {
		// Keep the *workload.Error in the chain: the serving layer
		// extracts its field/line/column for structured 400 bodies.
		return fmt.Errorf("runner: %w", err)
	}
	return j.fitsSM("program", &k.Profile)
}

// fitsSM checks that a single CTA of the kernel p describes is schedulable
// on the configured SM at all.
func (j *Job) fitsSM(kind string, p *kernels.Profile) error {
	smc := &j.Cfg.SM
	if p.WarpsPerCTA > smc.MaxWarps {
		return fmt.Errorf("runner: %s %s needs %d warps/CTA, SM has %d slots",
			kind, p.Abbrev, p.WarpsPerCTA, smc.MaxWarps)
	}
	if p.ThreadsPerCTA() > smc.MaxThreads {
		return fmt.Errorf("runner: %s %s needs %d threads/CTA, SM has %d",
			kind, p.Abbrev, p.ThreadsPerCTA(), smc.MaxThreads)
	}
	if p.SharedMem > smc.SharedMemBytes {
		return fmt.Errorf("runner: %s %s needs %d B shared memory/CTA, SM has %d",
			kind, p.Abbrev, p.SharedMem, smc.SharedMemBytes)
	}
	return nil
}

// validateProfile admits a classic profile/grid workload: the profile must
// be one kernels.Generate builds, and one CTA of it must fit the SM.
func (j *Job) validateProfile() error {
	p := &j.Profile
	if p.Abbrev == "" {
		return fmt.Errorf("runner: profile has no abbreviation")
	}
	if j.Grid < 1 {
		return fmt.Errorf("runner: grid %d < 1", j.Grid)
	}
	const maxGrid = 1 << 22
	if j.Grid > maxGrid {
		return fmt.Errorf("runner: grid %d exceeds the %d-CTA guard", j.Grid, maxGrid)
	}
	if err := j.fitsSM("profile", p); err != nil {
		return err
	}
	if _, err := kernels.Generate(*p); err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	return nil
}

// validateMachine checks the machine geometry shared by both workload
// kinds.
func (j *Job) validateMachine() error {
	cfg := &j.Cfg
	if cfg.NumSMs < 1 || cfg.NumSMs > 4096 {
		return fmt.Errorf("runner: NumSMs %d outside [1, 4096]", cfg.NumSMs)
	}
	smc := &cfg.SM
	if smc.MaxCTAs < 1 || smc.MaxWarps < 1 || smc.MaxThreads < 1 || smc.NumSchedulers < 1 {
		return fmt.Errorf("runner: SM scheduling limits must be positive (CTAs=%d warps=%d threads=%d scheds=%d)",
			smc.MaxCTAs, smc.MaxWarps, smc.MaxThreads, smc.NumSchedulers)
	}
	// Both size a worker's per-SM arrays in sm.New (the event queue holds
	// MaxWarps, the scheduler state NumSchedulers), and a Go out-of-memory
	// is fatal, not a panic the engine recovers. 4096 is 64× Table I; the
	// experiments peak at 512.
	const maxWarps = 4096
	if smc.MaxWarps > maxWarps {
		return fmt.Errorf("runner: MaxWarps %d exceeds the %d-warp guard", smc.MaxWarps, maxWarps)
	}
	if smc.NumSchedulers > smc.MaxWarps {
		return fmt.Errorf("runner: NumSchedulers %d exceeds MaxWarps %d", smc.NumSchedulers, smc.MaxWarps)
	}
	if smc.MaxResidentCTAs < 1 {
		return fmt.Errorf("runner: MaxResidentCTAs %d < 1", smc.MaxResidentCTAs)
	}
	if smc.RegFileBytes < 1 || smc.SharedMemBytes < 0 {
		return fmt.Errorf("runner: SM memory sizes invalid (regfile=%d shared=%d)",
			smc.RegFileBytes, smc.SharedMemBytes)
	}
	// Cache geometries must be constructible (sm.New panics otherwise) and
	// bounded: a worker allocates an 8-byte tag per 128-byte line (per SM
	// for the L1), so an unbounded size is an out-of-memory kill one
	// request long, and CheckGeometry caps the ways every access scans.
	// gpu.Default().Scale(4096) has a 512 MiB L2.
	const maxL1Bytes, maxL2Bytes = 16 << 20, 1 << 30
	if err := mem.CheckGeometry(smc.L1Bytes, smc.L1Ways); err != nil {
		return fmt.Errorf("runner: L1: %w", err)
	}
	if smc.L1Bytes > maxL1Bytes {
		return fmt.Errorf("runner: L1: %d bytes exceeds the %d-byte guard", smc.L1Bytes, maxL1Bytes)
	}
	if err := mem.CheckGeometry(cfg.L2Bytes, cfg.L2Ways); err != nil {
		return fmt.Errorf("runner: L2: %w", err)
	}
	if cfg.L2Bytes > maxL2Bytes {
		return fmt.Errorf("runner: L2: %d bytes exceeds the %d-byte guard", cfg.L2Bytes, maxL2Bytes)
	}
	// The guards above bound each array; the machine as a whole is bounded
	// too: 4096 SMs of 16 MiB L1s, or of 4096 warp slots each, pass every
	// per-field guard and are gigabytes. Default().Scale(4096) is ~170 MiB.
	const maxMachineBytes = 256 << 20
	if n := gpu.MachineBytes(*cfg); n > maxMachineBytes {
		return fmt.Errorf("runner: machine of %d MiB exceeds the %d MiB guard", n>>20, maxMachineBytes>>20)
	}
	if cfg.DRAMBytesPerCycle <= 0 {
		return fmt.Errorf("runner: DRAMBytesPerCycle %v <= 0", cfg.DRAMBytesPerCycle)
	}
	if cfg.DRAMLatency < 0 || cfg.MaxCycles < 0 {
		return fmt.Errorf("runner: negative DRAM latency or cycle budget")
	}
	// The SM scoreboard holds int32 cycles, so no run may reach 2^31
	// (gpu.Config.MaxCycles).
	if cfg.MaxCycles > math.MaxInt32 {
		return fmt.Errorf("runner: cycle budget %d exceeds the 2^31-cycle guard", cfg.MaxCycles)
	}
	return nil
}

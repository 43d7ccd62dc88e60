package main

import (
	"math/rand"
	"time"

	"finereg/internal/core"
	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/mem"
)

// Micro-drivers time exported calls of one layer directly, on inputs taken
// from the workload's own kernels and a seeded generator. They separate
// what the CPU profile mixes (a layer's cost per call from how often the
// simulator calls it) and give layers like the assembler, which no timed
// workload stresses, a number of their own.

// microReps and microTarget size a micro-driver: each is run microReps
// times for about microTarget and the fastest repetition is reported.
const (
	microReps   = 5
	microTarget = 20 * time.Millisecond
)

// bestNsPerOp times fn, which performs ops operations per call, and
// returns the fastest observed nanoseconds per operation.
func bestNsPerOp(ops int, fn func()) float64 {
	// Calibrate the call count so one repetition lasts about microTarget.
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	calls := 1
	if one < microTarget {
		calls = int(microTarget/max(one, time.Microsecond)) + 1
	}
	best := 0.0
	for rep := 0; rep < microReps; rep++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(calls*ops)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// memDescriptors collects the global-memory access descriptors of the
// workload's kernels, split into scattered (random) and regular ones.
func memDescriptors(env *simEnv) (regular, scattered []isa.MemDesc) {
	seen := map[string]bool{}
	for _, c := range env.cells {
		if seen[c.bench] {
			continue
		}
		seen[c.bench] = true
		k, err := kernels.Build(c.prof, c.grid)
		if err != nil {
			continue
		}
		for i := range k.Prog.Instrs {
			in := &k.Prog.Instrs[i]
			if !in.IsGlobalMem() {
				continue
			}
			if in.Mem.Pattern == isa.PatRandom {
				scattered = append(scattered, in.Mem)
			} else {
				regular = append(regular, in.Mem)
			}
		}
	}
	return regular, scattered
}

// memMicro drives internal/mem with the address streams the sim-mem
// kernels generate: mem.Coalesce over their descriptors from a seeded
// stream index.
func memMicro(env *simEnv, seed int64, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	regular, scattered := memDescriptors(env)
	all := append(append([]isa.MemDesc(nil), regular...), scattered...)
	if len(all) == 0 {
		return
	}
	base := uint64(rng.Int63n(1 << 20))

	// Coalesce itself.
	var buf []uint64
	const coalesceCalls = 4096
	layer["mem.coalesce_ns"] = bestNsPerOp(coalesceCalls, func() {
		for i := 0; i < coalesceCalls; i++ {
			buf = mem.Coalesce(all[i%len(all)], base+uint64(i), buf)
		}
	})

	smc := env.cfg.SM
	l1, err := mem.NewCache(smc.L1Bytes, smc.L1Ways)
	if err != nil {
		return
	}
	// A resident set (half the cache) and a stream eight times its size,
	// both drawn from the kernels' own line addresses.
	lines := func(n int) []uint64 {
		out := make([]uint64, 0, n)
		seenLine := map[uint64]bool{}
		for idx := base; len(out) < n; idx++ {
			for _, md := range all {
				for _, a := range mem.Coalesce(md, idx, buf) {
					if !seenLine[a] && len(out) < n {
						seenLine[a] = true
						out = append(out, a)
					}
				}
			}
		}
		return out
	}
	cacheLines := smc.L1Bytes / 128
	hot := lines(cacheLines / 2)
	for _, a := range hot {
		l1.Access(a)
	}
	layer["mem.cache_hit_ns"] = bestNsPerOp(len(hot), func() {
		for _, a := range hot {
			l1.Access(a)
		}
	})
	cold := lines(cacheLines * 8)
	layer["mem.cache_miss_ns"] = bestNsPerOp(len(cold), func() {
		for _, a := range cold {
			l1.Access(a)
		}
	})

	// Hierarchy.Access per line, on each descriptor class.
	hier := func(descs []isa.MemDesc) float64 {
		if len(descs) == 0 {
			return 0
		}
		h := mem.NewHierarchy(env.cfg.L2Bytes, env.cfg.L2Ways, env.cfg.DRAMLatency, env.cfg.DRAMBytesPerCycle, mem.DefaultLatencies())
		l1, err := mem.NewCache(smc.L1Bytes, smc.L1Ways)
		if err != nil {
			return 0
		}
		const calls = 2048
		var now int64
		idx := base
		touched := 0
		for i := 0; i < calls; i++ { // count lines per batch once
			touched += len(mem.Coalesce(descs[i%len(descs)], idx+uint64(i), buf))
		}
		return bestNsPerOp(touched, func() {
			for i := 0; i < calls; i++ {
				buf = mem.Coalesce(descs[i%len(descs)], idx+uint64(i), buf)
				h.Access(l1, now, buf, i%8 == 7)
				now += 4
			}
		})
	}
	layer["mem.hier_coalesced_ns"] = hier(regular)
	layer["mem.hier_scattered_ns"] = hier(scattered)
}

// pcrfEntries is the paper's 128 KB PCRF in 128-byte register entries;
// pcrfPasses is how many store-all/release-all passes the driver times.
const (
	pcrfEntries = 1024
	pcrfPasses  = 2000
)

// coreMicro drives the PCRF and RMU with chains sized like the sim-switch
// Type-R kernels' live sets.
func coreMicro(env *simEnv, seed int64, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	var chainLens []int
	var liPCs int
	seen := map[string]bool{}
	for _, c := range env.cells {
		if seen[c.bench] || (c.bench != "LI" && c.bench != "LB") {
			continue
		}
		seen[c.bench] = true
		k, err := kernels.Build(c.prof, c.grid)
		if err != nil {
			continue
		}
		chainLens = append(chainLens, max(int(k.Live.MeanLive()+0.5), 1)*c.prof.WarpsPerCTA)
		if c.bench == "LI" {
			liPCs = k.Prog.Len()
		}
	}
	if len(chainLens) == 0 {
		return
	}

	// Chains alternate between the kernels' sizes until the PCRF is 75%
	// full; each repetition releases them all and stores them again.
	var chains [][]core.RegRef
	total := 0
	for i := 0; total+chainLens[i%len(chainLens)] <= pcrfEntries*3/4; i++ {
		n := chainLens[i%len(chainLens)]
		refs := make([]core.RegRef, n)
		for j := range refs {
			refs[j] = core.RegRef{Warp: uint8(rng.Intn(8)), Reg: uint8(rng.Intn(64))}
		}
		chains = append(chains, refs)
		total += n
	}
	p, err := core.NewPCRF(pcrfEntries)
	if err != nil || len(chains) == 0 {
		return
	}
	heads := make([]int, len(chains))
	store := func() {
		for i, refs := range chains {
			heads[i], _ = p.StoreChain(refs)
		}
	}
	release := func() {
		for _, h := range heads {
			p.ReleaseChainCount(h)
		}
	}
	// Store and release alternate (one fills what the other empties); the
	// fastest pass of each is reported.
	var storeBest, releaseBest time.Duration
	for pass := 0; pass < pcrfPasses; pass++ {
		t0 := time.Now()
		store()
		t1 := time.Now()
		release()
		t2 := time.Now()
		if d := t1.Sub(t0); pass == 0 || d < storeBest {
			storeBest = d
		}
		if d := t2.Sub(t1); pass == 0 || d < releaseBest {
			releaseBest = d
		}
	}
	layer["core.pcrf_store_ns"] = float64(storeBest.Nanoseconds()) / float64(total)
	layer["core.pcrf_release_ns"] = float64(releaseBest.Nanoseconds()) / float64(total)

	h := mem.NewHierarchy(env.cfg.L2Bytes, env.cfg.L2Ways, env.cfg.DRAMLatency, env.cfg.DRAMBytesPerCycle, mem.DefaultLatencies())
	rmu := core.NewRMU(h)
	pcs := make([]int, 4096)
	for i := range pcs {
		pcs[i] = rng.Intn(max(liPCs, 1))
	}
	var now int64
	layer["core.rmu_lookup_ns"] = bestNsPerOp(len(pcs), func() {
		for _, pc := range pcs {
			now += rmu.Lookup(pc, now) + 1
		}
	})
}

package main

// This file is the benchmark's vocabulary: the workloads and every metric
// name it can emit. BENCHMARK.json at the repo root lists the same names;
// TestManifestMatchesCode fails when the two drift apart.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"sim-issue", "compute-dense kernels (SG CS MC FD, Baseline, paper 16-SM machine): about 85% of host time is the sm issue/pick loop, mem is small, core/regfile idle"},
	{"sim-mem", "memory-bound kernels (BF KM random reads; TR ST strided/streaming with stores): mem.Hierarchy/Cache and DRAM queueing carry 20-55% of host time, policies bypassed"},
	{"sim-switch", "LI LB (Type-R) and NW (Type-S, cold registers) under all five policies: CTA switching, PCRF chains and RegMutex hooks do the work that sim-issue and sim-mem bypass"},
	{"serve-mix", "closed-loop HTTP clients against an in-process serve.Server: warm resubmits, cold 2-SM jobs, unique user programs and rejects; runner/serve/stats/isa do measurable work, the simulator is the minority"},
}

// metricDef describes one emitted metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Layer  string
	Doc    string
}

// endToEnd metrics are emitted by every workload from the untraced run. A
// sim-* job is one finereg.RunBenchmark call (a cell); a serve-mix job is
// one submit→result operation.
var endToEnd = []metricDef{
	{"sim_kcycles_per_s", "kcycle/s", "higher", 0.25, "", "10^3 simulated GPU cycles per host second: sim-* sum of cell cycles / sum of per-cell best wall time; serve-mix cycles simulated by a round's executed jobs / round wall time, best round"},
	{"jobs_per_s", "1/s", "higher", 0.25, "", "completed jobs per host second: sim-* cells / sum of per-cell best wall time; serve-mix ops in a round / round wall time, best round"},
	{"job_p50_ms", "ms", "lower", 0.25, "", "median job latency: sim-* median over cells of the per-cell best wall time; serve-mix median submit→result-decoded latency over all of a round's ops (warm-dominated), best round"},
	{"cold_p50_ms", "ms", "lower", 0.25, "", "median latency of jobs that simulate from scratch: sim-* every cell is cold, so equal to job_p50_ms; serve-mix median of a round's cold sms:2 jobs, best round"},
	{"alloc_kb_per_kcycle", "kB/kcycle", "lower", 0.05, "", "heap bytes allocated (runtime.MemStats.TotalAlloc delta over the timed phase) per 10^3 simulated cycles"},
	{"peak_rss_mb", "MB", "lower", 0.25, "", "peak resident set size of the benchmark process at exit (getrusage ru_maxrss)"},
	{"setup_s", "s", "lower", 0.25, "", "time to build everything the timed phase needs (configs, kernels, warm-up pass; server, cache dir, priming and warm-up jobs on serve-mix); set up 5 to 25 times (about 1 s), median"},
}

// perLayer metrics come from the traced run (--trace 1). Every workload
// emits every name; a metric whose layer the workload does not drive, or
// whose micro-driver belongs to another workload, reads 0 there.
var perLayer = []metricDef{
	// (a) spans the benchmark records around its own calls.
	{"kernels.build_ms", "ms", "lower", 0, "kernels", "sim-*: direct kernels.Build per cell, summed over one round"},
	{"gpu.run_ms", "ms", "lower", 0, "gpu", "sim-*: RunBenchmark span minus kernels.build, per-cell best summed over one round"},
	{"serve.submit_ms", "ms", "lower", 0, "serve", "serve-mix: mean SubmitJob span"},
	{"serve.wait_ms", "ms", "lower", 0, "serve", "serve-mix: mean SSE wait span of ops not already done at submit"},
	{"serve.fetch_ms", "ms", "lower", 0, "serve", "serve-mix: mean JobStatus fetch + decode span"},
	{"serve.reject_ms", "ms", "lower", 0, "serve", "serve-mix: mean latency of a malformed submission's 400"},
	{"serve.queue_wait_ms", "ms", "lower", 0, "serve", "serve-mix: mean started−queued of executed jobs (server timestamps, ms resolution)"},
	{"serve.run_ms", "ms", "lower", 0, "serve", "serve-mix: mean finished−started of executed jobs (server timestamps)"},
	{"serve.warm_p50_ms", "ms", "lower", 0, "serve", "serve-mix: warm-op latency median, best round"},
	{"serve.warm_p95_ms", "ms", "lower", 0, "serve", "serve-mix: warm-op latency p95 (800 ops a round, 40 beyond), best round"},
	{"serve.cold_p50_ms", "ms", "lower", 0, "serve", "serve-mix: cold-op latency median, best round"},
	{"serve.ingest_p50_ms", "ms", "lower", 0, "serve", "serve-mix: unique user-program latency median, best round"},

	// (b) CPU profile, each sample charged to the deepest repo frame.
	{"sm.cpu_share", "ratio", "lower", 0, "sm", "share of CPU samples whose deepest repo frame is in internal/sm"},
	{"mem.cpu_share", "ratio", "lower", 0, "mem", "same for internal/mem"},
	{"core.cpu_share", "ratio", "lower", 0, "core", "same for internal/core"},
	{"regfile.cpu_share", "ratio", "lower", 0, "regfile", "same for internal/regfile"},
	{"gpu.cpu_share", "ratio", "lower", 0, "gpu", "same for internal/gpu"},
	{"isa.cpu_share", "ratio", "lower", 0, "isa", "same for internal/isa (Program.At under the simulator plus the assembler)"},
	{"liveness.cpu_share", "ratio", "lower", 0, "liveness", "same for internal/liveness"},
	{"kernels.cpu_share", "ratio", "lower", 0, "kernels", "same for internal/kernels"},
	{"workload.cpu_share", "ratio", "lower", 0, "workload", "same for internal/workload"},
	{"stats.cpu_share", "ratio", "lower", 0, "stats", "same for internal/stats"},
	{"runner.cpu_share", "ratio", "lower", 0, "runner", "same for internal/runner"},
	{"serve.cpu_share", "ratio", "lower", 0, "serve", "same for internal/serve"},
	{"fleet.cpu_share", "ratio", "lower", 0, "fleet", "same for internal/fleet"},
	{"other.cpu_share", "ratio", "lower", 0, "other", "repo packages outside the layer list (telemetry, trace, par, the root facade)"},
	{"nethttp.cpu_share", "ratio", "lower", 0, "nethttp", "samples with no repo frame but a net/http frame"},
	{"runtime.cpu_share", "ratio", "lower", 0, "runtime", "samples with no repo frame and no net/http frame: background GC, scheduler, netpoll"},
	{"bench.client_share", "ratio", "lower", 0, "bench", "samples whose deepest repo frame is the benchmark's own code"},

	// (c) exact work counts from stats.Metrics, one round.
	{"sm.warp_instrs", "count", "lower", 0, "sm", "instructions issued, summed over one round's simulations"},
	{"sm.cta_switches", "count", "lower", 0, "sm", "CTA pending<->active exchanges, one round"},
	{"sm.cta_stalls", "count", "lower", 0, "sm", "all-warps-stalled events, one round"},
	{"mem.l1_accesses", "count", "lower", 0, "mem", "L1 accesses, one round"},
	{"mem.l1_miss_ratio", "ratio", "lower", 0, "mem", "L1 misses / accesses"},
	{"mem.l2_accesses", "count", "lower", 0, "mem", "L2 accesses, one round"},
	{"mem.l2_miss_ratio", "ratio", "lower", 0, "mem", "L2 misses / accesses"},
	{"mem.dram_mb", "MB", "lower", 0, "mem", "off-chip traffic, one round"},
	{"core.pcrf_accesses", "count", "lower", 0, "core", "PCRF reads + writes, one round"},
	{"regfile.rf_accesses", "count", "lower", 0, "regfile", "register file reads + writes, one round"},
	{"regfile.dram_context_mb", "MB", "lower", 0, "regfile", "CTA context bytes moved off chip (Reg+DRAM), one round"},
	{"sm.ns_per_warp_instr", "ns", "lower", 0, "sm", "sm.cpu_share x one round's profiled CPU time / warp instructions"},
	{"mem.ns_per_l1_access", "ns", "lower", 0, "mem", "mem.cpu_share x one round's profiled CPU time / L1 accesses"},
	{"core.ns_per_cta_switch", "ns", "lower", 0, "core", "core.cpu_share x one round's profiled CPU time / CTA switches"},
	{"regfile.ns_per_cta_switch", "ns", "lower", 0, "regfile", "regfile.cpu_share x one round's profiled CPU time / CTA switches"},

	// (d) one pass with runner.Job.Stalls: the exact warp-slot partition.
	{"sm.issue_frac", "ratio", "higher", 0, "sm", "warp-slot cycles that issued"},
	{"sm.idle_frac", "ratio", "lower", 0, "sm", "ready but not picked"},
	{"sm.stall_memory_frac", "ratio", "lower", 0, "sm", "blocked on global memory"},
	{"sm.stall_transfer_frac", "ratio", "lower", 0, "sm", "waiting out CTA-switch register movement"},
	{"sm.stall_scoreboard_frac", "ratio", "lower", 0, "sm", "blocked on a short-latency dependency"},
	{"sm.stall_regdepletion_frac", "ratio", "lower", 0, "sm", "issue denied for lack of register resources"},
	{"sm.stall_barrier_frac", "ratio", "lower", 0, "sm", "parked at a CTA barrier"},
	{"trace.stalls_overhead_ratio", "ratio", "lower", 0, "trace", "wall time of the Stalls pass / the same cells' best untraced time"},

	// (e) seeded micro-drivers timing exported calls directly.
	{"mem.cache_hit_ns", "ns", "lower", 0, "mem", "sim-mem: Cache.Access on a resident set (48 KB 8-way)"},
	{"mem.cache_miss_ns", "ns", "lower", 0, "mem", "sim-mem: Cache.Access on a stream larger than the cache"},
	{"mem.hier_coalesced_ns", "ns", "lower", 0, "mem", "sim-mem: Hierarchy.Access per line on the workload's coalesced/strided descriptors"},
	{"mem.hier_scattered_ns", "ns", "lower", 0, "mem", "sim-mem: Hierarchy.Access per line on the workload's random descriptors"},
	{"mem.coalesce_ns", "ns", "lower", 0, "mem", "sim-mem: mem.Coalesce per call over the workload's descriptors"},
	{"core.pcrf_store_ns", "ns", "lower", 0, "core", "sim-switch: PCRF.StoreChain per register entry, LI/LB-sized chains up to 75% occupancy"},
	{"core.pcrf_release_ns", "ns", "lower", 0, "core", "sim-switch: PCRF.ReleaseChainCount per register entry"},
	{"core.rmu_lookup_ns", "ns", "lower", 0, "core", "sim-switch: RMU.Lookup over seeded PCs of the LI program"},
	{"gpu.finereg_ipc_gain", "ratio", "higher", 0, "gpu", "sim-switch: geomean over LI, LB, NW of IPC(finereg)/IPC(baseline); simulated, repeats exactly"},
	{"gpu.fig13_geomean", "ratio", "higher", 0, "gpu", "sim-switch: geomean FineReg speed-up over all 18 kernels (paper 1.328, EXPERIMENTS.md 1.289)"},
	{"gpu.fig13_err_pct", "%", "lower", 0, "gpu", "sim-switch: (fig13_geomean − 1.328) / 1.328 x 100"},
	{"isa.assemble_us", "us", "lower", 0, "isa", "serve-mix: isa.AssembleLaunch on the ingest source"},
	{"liveness.analyze_us", "us", "lower", 0, "liveness", "serve-mix: liveness.Analyze on the assembled program"},
	{"kernels.build_us", "us", "lower", 0, "kernels", "serve-mix: kernels.Build, mean over the 18 profiles"},
	{"workload.load_us", "us", "lower", 0, "workload", "serve-mix: workload.Program.Load on the ingest source"},
	{"serve.resolve_us", "us", "lower", 0, "serve", "serve-mix: JobRequest.Resolve of a warm bench request"},
	{"runner.key_us", "us", "lower", 0, "runner", "serve-mix: Job.Key"},
	{"runner.validate_bench_us", "us", "lower", 0, "runner", "serve-mix: Job.Validate of a profile job"},
	{"runner.validate_program_us", "us", "lower", 0, "runner", "serve-mix: Job.Validate of a user-program job"},
	{"runner.cache_get_mem_ns", "ns", "lower", 0, "runner", "serve-mix: Cache.Get served from memory"},
	{"runner.cache_put_mem_ns", "ns", "lower", 0, "runner", "serve-mix: Cache.Put, memory only"},
	{"runner.cache_get_disk_us", "us", "lower", 0, "runner", "serve-mix: Cache.Get served from disk by a fresh Cache"},
	{"runner.cache_put_disk_us", "us", "lower", 0, "runner", "serve-mix: Cache.Put with a disk layer"},
	{"stats.encode_us", "us", "lower", 0, "stats", "serve-mix: JSON-encode one runner.Result"},
	{"stats.decode_us", "us", "lower", 0, "stats", "serve-mix: JSON-decode one runner.Result"},
	{"serve.coalesced_ratio", "ratio", "higher", 0, "serve", "serve-mix: coalesced / accepted submissions, from /metrics"},
	{"serve.shed_total", "count", "lower", 0, "serve", "serve-mix: submissions shed with 429, from /metrics"},
	{"runner.executed", "count", "lower", 0, "runner", "serve-mix: fresh simulations the engine executed"},
	{"runner.cache_hit_ratio", "ratio", "higher", 0, "runner", "serve-mix: engine cache hits / (hits + executed)"},
	{"serve.diskwarm_p50_ms", "ms", "lower", 0, "serve", "serve-mix: warm set once through a second server on the same cache dir"},
	{"fleet.hop_warm_ms", "ms", "lower", 0, "fleet", "serve-mix: warm-op median through a loopback coordinator + one worker, minus direct"},
	{"fleet.hop_cold_ms", "ms", "lower", 0, "fleet", "serve-mix: cold-op median through the coordinator, minus direct"},

	// everywhere
	{"runtime.allocs_per_kcycle", "1/kcycle", "lower", 0, "runtime", "heap objects allocated per 10^3 simulated cycles"},
	{"runtime.gc_cycles", "count", "lower", 0, "runtime", "GC cycles completed during the profiled phase"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "runtime", "total stop-the-world pause during the profiled phase"},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0, "bench", "headline wall time with profile + spans on / the same run's untraced reference rounds"},
}

// cpuShareLayers maps a profile-attribution bucket to its metric name.
var cpuShareLayers = map[string]string{
	"sm": "sm.cpu_share", "mem": "mem.cpu_share", "core": "core.cpu_share",
	"regfile": "regfile.cpu_share", "gpu": "gpu.cpu_share", "isa": "isa.cpu_share",
	"liveness": "liveness.cpu_share", "kernels": "kernels.cpu_share",
	"workload": "workload.cpu_share", "stats": "stats.cpu_share",
	"runner": "runner.cpu_share", "serve": "serve.cpu_share", "fleet": "fleet.cpu_share",
	"other": "other.cpu_share", "nethttp": "nethttp.cpu_share",
	"runtime": "runtime.cpu_share", "bench": "bench.client_share",
}

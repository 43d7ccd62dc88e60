package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"finereg"
	"finereg/internal/kernels"
	"finereg/internal/runner"
)

// The sim-* workloads drive the simulator through the root facade exactly
// as a library user or finereg-sim would: one goroutine, one
// finereg.RunBenchmark call per cell, the paper's 16-SM machine and
// reference grids. A round runs every cell once, in a seeded order that
// changes each round, so every cell samples every host phase.

// policyDef is one of the paper's five configurations, in the two forms the
// benchmark needs: the facade's factory for timed cells and the runner's
// serializable spec for the stall pass.
type policyDef struct {
	name    string
	factory func() finereg.PolicyFactory
	spec    runner.PolicySpec
}

var policies = []policyDef{
	{"baseline", finereg.Baseline, runner.PolicySpec{Kind: "baseline"}},
	{"vt", finereg.VirtualThread, runner.PolicySpec{Kind: "vt"}},
	{"regdram", func() finereg.PolicyFactory { return finereg.RegDRAM(4) }, runner.PolicySpec{Kind: "regdram", DRAMCap: 4}},
	{"regmutex", func() finereg.PolicyFactory { return finereg.VTRegMutex(0.25) }, runner.PolicySpec{Kind: "regmutex", SRPFrac: 0.25}},
	{"finereg", finereg.FineReg, runner.PolicySpec{Kind: "finereg-default"}},
}

func policyByName(name string) policyDef {
	for _, p := range policies {
		if p.name == name {
			return p
		}
	}
	panic("benchmark: unknown policy " + name)
}

// simPlan is a workload's cell matrix: benches × policies.
type simPlan struct {
	benches  []string
	policies []string
}

var simPlans = map[string]simPlan{
	"sim-issue":  {[]string{"SG", "CS", "MC", "FD"}, []string{"baseline"}},
	"sim-mem":    {[]string{"BF", "KM", "TR", "ST"}, []string{"baseline"}},
	"sim-switch": {[]string{"LI", "LB", "NW"}, []string{"baseline", "vt", "regdram", "regmutex", "finereg"}},
}

// smokeSMs and smokeGridDiv shrink the machine and grids for -smoke.
const (
	smokeSMs     = 1
	smokeGridDiv = 64
)

// simCell is one (benchmark, policy) point.
type simCell struct {
	bench   string
	policy  policyDef
	pf      finereg.PolicyFactory
	prof    kernels.Profile
	grid    int              // 0 = the profile's reference grid
	buildNs float64          // direct kernels.Build, best of three
	first   *finereg.Metrics // the outcome every later rep must equal
}

// simEnv is what set-up builds and the timed phase consumes.
type simEnv struct {
	cfg   finereg.Config
	cells []*simCell
}

// scaledGrid is the cell's grid: 0 (the profile's reference grid) for a
// measurement, a sliver of it for -smoke.
func scaledGrid(prof kernels.Profile, smoke bool) int {
	if !smoke {
		return 0
	}
	return max(prof.GridCTAs/smokeGridDiv, 1)
}

func machine(smoke bool) finereg.Config {
	if smoke {
		return finereg.ScaledConfig(smokeSMs)
	}
	return finereg.DefaultConfig()
}

// newSimEnv is the sim-* set-up: machine config, profiles, a direct
// kernels.Build per cell (which also validates the profile and gives the
// traced run its kernels.build span), and a warm-up pass of every cell on a
// 1-SM machine so allocator growth and lazy initialization are paid before
// the first timed round. Each cell warms up on 1/cells of its reference
// grid, so the pass simulates about one grid whatever the cell count: a
// set-up of ~0.15 s is mostly simulation and repeats far better than one of
// 40 ms, which is mostly first-touch page faults.
func newSimEnv(plan simPlan, smoke bool) (*simEnv, error) {
	env := &simEnv{cfg: machine(smoke)}
	warmCfg := finereg.ScaledConfig(smokeSMs)
	cells := len(plan.benches) * len(plan.policies)
	for _, b := range plan.benches {
		prof, err := finereg.BenchmarkProfile(b)
		if err != nil {
			return nil, err
		}
		for _, pn := range plan.policies {
			c := &simCell{bench: b, policy: policyByName(pn), prof: prof, grid: scaledGrid(prof, smoke)}
			c.pf = c.policy.factory()
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				if _, err := kernels.Build(prof, c.grid); err != nil {
					return nil, err
				}
				if ns := float64(time.Since(t0).Nanoseconds()); rep == 0 || ns < c.buildNs {
					c.buildNs = ns
				}
			}
			warmGrid := max(prof.GridCTAs/cells, 1)
			if smoke {
				warmGrid = c.grid
			}
			if _, err := finereg.RunBenchmark(warmCfg, b, warmGrid, c.pf); err != nil {
				return nil, fmt.Errorf("warm-up %s/%s: %w", b, pn, err)
			}
			env.cells = append(env.cells, c)
		}
	}
	return env, nil
}

// simPhase is the raw result of one timed phase.
type simPhase struct {
	times     [][]float64 // [cell][round] seconds
	roundWall []float64
	mem       memCounters
}

func (p *simPhase) rounds() int { return len(p.roundWall) }

// phase runs whole rounds, each cell once per round in a fresh seeded
// order, for as long as anotherRound allows.
func (e *simEnv) phase(budget time.Duration, fixedRounds int, rng *rand.Rand, log *spanLog, out *outcome) simPhase {
	ph := simPhase{times: make([][]float64, len(e.cells))}
	before := readMemCounters()
	start := time.Now()
	for r := 0; anotherRound(ph.roundWall, start, budget, fixedRounds); r++ {
		roundStart := time.Now()
		roundID := log.reserve("round", -1, -1, int32(r), roundStart)
		for _, ci := range rng.Perm(len(e.cells)) {
			c := e.cells[ci]
			t0 := time.Now()
			m, err := finereg.RunBenchmark(e.cfg, c.bench, c.grid, c.pf)
			t1 := time.Now()
			ph.times[ci] = append(ph.times[ci], t1.Sub(t0).Seconds())
			out.attempted++
			if log != nil {
				id := log.add("finereg.RunBenchmark", roundID, int32(ci), int32(r), t0, t1)
				// kernels.Build runs inside RunBenchmark and cannot be
				// spanned from outside; the direct call timed at set-up
				// stands in for it at the head of the cell.
				log.add("kernels.Build", id, int32(ci), int32(r), t0, t0.Add(time.Duration(c.buildNs)))
			}
			switch {
			case err != nil:
				out.failed++
				out.check("run "+c.bench+"/"+c.policy.name, false, "%v", err)
			case c.first == nil:
				c.first = m
			case !reflect.DeepEqual(m, c.first):
				out.failed++
				out.check("deterministic "+c.bench+"/"+c.policy.name, false, "round %d metrics differ from the first run", r)
			}
		}
		end := time.Now()
		log.finish(roundID, end)
		ph.roundWall = append(ph.roundWall, end.Sub(roundStart).Seconds())
	}
	ph.mem = readMemCounters().since(before)
	return ph
}

// roundCycles is the simulated cycles of one round (every cell once).
func (e *simEnv) roundCycles() float64 {
	var t float64
	for _, c := range e.cells {
		if c.first != nil {
			t += float64(c.first.Cycles)
		}
	}
	return t
}

// bestSeconds is the per-cell minimum over the phase's rounds.
func (p *simPhase) bestSeconds() []float64 {
	best := make([]float64, len(p.times))
	for i, ts := range p.times {
		best[i] = bestOf(ts, false).Best
	}
	return best
}

// headline fills the end-to-end metrics from an untraced phase.
func (e *simEnv) headline(ph *simPhase, out *outcome) {
	cycles := e.roundCycles()
	best := ph.bestSeconds()
	n := float64(len(e.cells))

	// Per-round series of the same statistics, for the spread.
	var kcps, jps []float64
	for r := 0; r < ph.rounds(); r++ {
		var t float64
		for ci := range e.cells {
			t += ph.times[ci][r]
		}
		kcps = append(kcps, cycles/1e3/t)
		jps = append(jps, n/t)
	}
	withBest := func(series []float64, higher bool, best float64) metricValue {
		est := bestOf(series, higher)
		est.Best = best
		for ci := range e.cells {
			est.Unsettled = est.Unsettled || bestOf(ph.times[ci], false).Unsettled
		}
		return metricValue{Value: best, Rounds: &est}
	}
	out.e2e["sim_kcycles_per_s"] = withBest(kcps, true, cycles/1e3/sum(best))
	out.e2e["jobs_per_s"] = withBest(jps, true, n/sum(best))

	bestMS := make([]float64, len(best))
	for i, s := range best {
		bestMS[i] = s * 1e3
	}
	p50 := metricValue{Value: median(bestMS)}
	out.e2e["job_p50_ms"] = p50
	out.e2e["cold_p50_ms"] = p50 // every sim-* job simulates from scratch

	totalKcycles := cycles * float64(ph.rounds()) / 1e3
	out.e2e["alloc_kb_per_kcycle"] = metricValue{Value: float64(ph.mem.allocBytes) / 1024 / totalKcycles}
}

// finish records the cells, the digest and the cross-policy checks.
func (e *simEnv) finish(ph *simPhase, out *outcome) {
	out.rounds = ph.rounds()
	h := sha256.New()
	byBench := map[string]*finereg.Metrics{}
	for ci, c := range e.cells {
		if c.first == nil {
			continue
		}
		b, err := json.Marshal(c.first)
		if err != nil {
			out.check("digest", false, "%v", err)
			continue
		}
		h.Write(b)
		out.cells = append(out.cells, cellReport{
			Bench: c.bench, Policy: c.policy.name, Cycles: c.first.Cycles, IPC: c.first.IPC(),
			Seconds: bestOf(ph.times[ci], false),
		})
		if ref := byBench[c.bench]; ref == nil {
			byBench[c.bench] = c.first
		} else if ref.Instructions != c.first.Instructions || ref.CTAsLaunched != c.first.CTAsLaunched {
			out.check("same work "+c.bench+"/"+c.policy.name, false,
				"instructions %d vs %d, CTAs %d vs %d across policies",
				c.first.Instructions, ref.Instructions, c.first.CTAsLaunched, ref.CTAsLaunched)
		}
	}
	out.simDigest = hex.EncodeToString(h.Sum(nil))
	out.check("deterministic and policy-invariant work", out.failed == 0, "%d failed ops", out.failed)
}

func runSim(o options) (*outcome, error) {
	out := &outcome{e2e: map[string]metricValue{}, layer: map[string]float64{}}
	plan := simPlans[o.workload]
	var env *simEnv
	var err error
	out.setupSeconds, err = repeatSetup(o.smoke, func() (err error) {
		env, err = newSimEnv(plan, o.smoke)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	budget := time.Duration(o.seconds * float64(time.Second))
	fixed := 0
	if o.smoke {
		fixed = 2
	}

	if !o.trace {
		ph := env.phase(budget, fixed, rng, nil, out)
		env.finish(&ph, out)
		env.headline(&ph, out)
		return out, nil
	}

	// Traced run: profile and spans over the first 70% of the budget, then
	// untraced reference rounds in the same process for the overhead ratio.
	log := newSpanLog()
	var traced simPhase
	shares, cpuNs, err := profile(out, func() { traced = env.phase(budget*7/10, fixed, rng, log, out) })
	if err != nil {
		return nil, err
	}
	ref := env.phase(budget*3/10, fixed, rng, nil, out)
	env.finish(&traced, out)

	best := traced.bestSeconds()
	var buildMS float64
	for _, c := range env.cells {
		buildMS += c.buildNs / 1e6
	}
	out.layer["kernels.build_ms"] = buildMS
	out.layer["gpu.run_ms"] = sum(best)*1e3 - buildMS
	out.layer["bench.trace_overhead_ratio"] = safeDiv(sum(best), sum(ref.bestSeconds()))

	var firsts []*finereg.Metrics
	for _, c := range env.cells {
		if c.first != nil {
			firsts = append(firsts, c.first)
		}
	}
	workCounts(out.layer, firsts, shares, float64(cpuNs)/float64(traced.rounds()))
	runtimeCounters(out.layer, traced.mem, env.roundCycles()*float64(traced.rounds()))

	env.stallPass(best, out)
	switch o.workload {
	case "sim-mem":
		memMicro(env, o.seed, out.layer)
	case "sim-switch":
		coreMicro(env, o.seed, out.layer)
		if err := env.fig13(o.smoke, out); err != nil {
			return nil, err
		}
	}

	_, err = writeTrace(o, log, shares, cpuNs,
		"kernels.Build spans are the direct call's time placed at the head of each RunBenchmark span")
	return out, err
}

// workCounts fills the exact per-round work counts from stats.Metrics and
// the host-time quotients: a layer's share of one round's profiled
// nanoseconds over the work it did in that round.
func workCounts(layer map[string]float64, ms []*finereg.Metrics, shares map[string]float64, roundNs float64) {
	var instrs, switches, stalls, l1a, l1m, l2a, l2m, dram, pcrf, rf, ctx float64
	for _, m := range ms {
		instrs += float64(m.Instructions)
		switches += float64(m.CTASwitches)
		stalls += float64(m.CTAStalls)
		l1a += float64(m.L1Accesses)
		l1m += float64(m.L1Misses)
		l2a += float64(m.L2Accesses)
		l2m += float64(m.L2Misses)
		dram += float64(m.DRAMBytes())
		pcrf += float64(m.PCRFReads + m.PCRFWrites)
		rf += float64(m.RFReads + m.RFWrites)
		ctx += float64(m.DRAMContextBytes)
	}
	layer["sm.warp_instrs"] = instrs
	layer["sm.cta_switches"] = switches
	layer["sm.cta_stalls"] = stalls
	layer["mem.l1_accesses"] = l1a
	layer["mem.l1_miss_ratio"] = safeDiv(l1m, l1a)
	layer["mem.l2_accesses"] = l2a
	layer["mem.l2_miss_ratio"] = safeDiv(l2m, l2a)
	layer["mem.dram_mb"] = dram / (1 << 20)
	layer["core.pcrf_accesses"] = pcrf
	layer["regfile.rf_accesses"] = rf
	layer["regfile.dram_context_mb"] = ctx / (1 << 20)
	layer["sm.ns_per_warp_instr"] = safeDiv(shares["sm"]*roundNs, instrs)
	layer["mem.ns_per_l1_access"] = safeDiv(shares["mem"]*roundNs, l1a)
	layer["core.ns_per_cta_switch"] = safeDiv(shares["core"]*roundNs, switches)
	layer["regfile.ns_per_cta_switch"] = safeDiv(shares["regfile"]*roundNs, switches)
}

func runtimeCounters(layer map[string]float64, mc memCounters, cycles float64) {
	layer["runtime.allocs_per_kcycle"] = safeDiv(float64(mc.mallocs), cycles/1e3)
	layer["runtime.gc_cycles"] = float64(mc.gcCycles)
	layer["runtime.gc_pause_ms"] = float64(mc.gcPauseNs) / 1e6
}

// stallPass runs every cell once more through runner.Engine with
// Job.Stalls set, for the exact warp-slot partition and what attaching the
// aggregator costs.
func (e *simEnv) stallPass(best []float64, out *outcome) {
	eng := &runner.Engine{Jobs: 1}
	var slots, issue, idle, memory, transfer, scoreboard, depletion, barrier, wall float64
	for _, c := range e.cells {
		grid := c.grid
		if grid == 0 {
			grid = c.prof.GridCTAs
		}
		job := &runner.Job{Cfg: e.cfg, Profile: c.prof, Grid: grid, Policy: c.policy.spec, Stalls: true}
		t0 := time.Now()
		b := eng.Run([]*runner.Job{job})
		wall += time.Since(t0).Seconds()
		out.attempted++
		if err := b.Errs[0]; err != nil {
			out.failed++
			out.check("stall pass "+c.bench+"/"+c.policy.name, false, "%v", err)
			continue
		}
		m := b.Results[0].Metrics
		st := m.Stalls
		if st == nil || c.first == nil || m.Cycles != c.first.Cycles || m.Instructions != c.first.Instructions {
			out.failed++
			out.check("stall pass "+c.bench+"/"+c.policy.name, false, "traced outcome differs from the untraced cell")
			continue
		}
		slots += float64(st.WarpSlotCycles)
		issue += float64(st.IssueCycles)
		idle += float64(st.IdleCycles)
		memory += float64(st.MemoryCycles)
		transfer += float64(st.TransferCycles)
		scoreboard += float64(st.ScoreboardCycles)
		depletion += float64(st.RegDepletionCycles)
		barrier += float64(st.BarrierCycles)
	}
	fr := map[string]float64{
		"sm.issue_frac": issue, "sm.idle_frac": idle, "sm.stall_memory_frac": memory,
		"sm.stall_transfer_frac": transfer, "sm.stall_scoreboard_frac": scoreboard,
		"sm.stall_regdepletion_frac": depletion, "sm.stall_barrier_frac": barrier,
	}
	var total float64
	for name, v := range fr {
		out.layer[name] = safeDiv(v, slots)
		total += out.layer[name]
	}
	out.check("stall fractions sum to 1", total > 1-1e-9 && total < 1+1e-9, "sum %v", total)
	out.layer["trace.stalls_overhead_ratio"] = safeDiv(wall, sum(best))
}

// paperFig13 is the paper's FineReg geomean speed-up over Baseline.
const paperFig13 = 1.328

// fig13 runs every Table II kernel under baseline and finereg once (the
// workload's own cells are reused) and states the model's error against
// the paper beside the workload's simulated gain.
func (e *simEnv) fig13(smoke bool, out *outcome) error {
	ipc := map[string]float64{} // "bench/policy"
	for _, c := range e.cells {
		if c.first != nil {
			ipc[c.bench+"/"+c.policy.name] = c.first.IPC()
		}
	}
	var own, all []float64
	for _, b := range finereg.Benchmarks() {
		prof, err := finereg.BenchmarkProfile(b)
		if err != nil {
			return err
		}
		_, mine := ipc[b+"/finereg"]
		for _, pn := range []string{"baseline", "finereg"} {
			if _, ok := ipc[b+"/"+pn]; ok {
				continue
			}
			m, err := finereg.RunBenchmark(e.cfg, b, scaledGrid(prof, smoke), policyByName(pn).factory())
			out.attempted++
			if err != nil {
				out.failed++
				return fmt.Errorf("fig13 %s/%s: %w", b, pn, err)
			}
			ipc[b+"/"+pn] = m.IPC()
		}
		gain := safeDiv(ipc[b+"/finereg"], ipc[b+"/baseline"])
		all = append(all, gain)
		if mine {
			own = append(own, gain)
		}
	}
	g := geomean(all)
	out.layer["gpu.finereg_ipc_gain"] = geomean(own)
	out.layer["gpu.fig13_geomean"] = g
	out.layer["gpu.fig13_err_pct"] = (g - paperFig13) / paperFig13 * 100
	return nil
}

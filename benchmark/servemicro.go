package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"finereg/internal/fleet"
	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/runner"
	"finereg/internal/workload"
)

// serveMicro is the traced serve-mix run's direct view of the layers the
// service is made of: the ingestion front door call by call, admission,
// the cache tiers, result encoding, a restart on a warm disk cache, and
// the fleet hop.
func (e *serveEnv) serveMicro(o options, out *outcome) error {
	layer := out.layer
	src := ingestSource(e.variants[0], "micro")
	wp := workload.Program{Source: src}
	warmReq := e.warm[0]
	ingestReq := e.ingestRequest(0, "micro")
	profs := kernels.Profiles()

	// Every call is made and checked once here; inside the timed closures
	// below results and errors are discarded on purpose.
	prog, _, err := isa.AssembleLaunch(src)
	if err != nil {
		return err
	}
	if _, err := liveness.Analyze(prog); err != nil {
		return err
	}
	for _, p := range profs {
		if _, err := kernels.Build(p, 0); err != nil {
			return err
		}
	}
	if _, err := wp.Load(kernels.Limits{}); err != nil {
		return err
	}
	benchJob, err := warmReq.Resolve()
	if err != nil {
		return err
	}
	progJob, err := ingestReq.Resolve()
	if err != nil {
		return err
	}
	var res runner.Result
	if err := json.Unmarshal(e.want[0], &res); err != nil {
		return err
	}
	key := benchJob.Key(runner.SimFingerprint)
	diskDir, err := os.MkdirTemp(o.outDir, "micro-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	memCache, diskCache := runner.NewCache(""), runner.NewCache(diskDir)
	us := func(fn func()) float64 { return bestNsPerOp(1, fn) / 1e3 }

	// Front door.
	layer["isa.assemble_us"] = us(func() { isa.AssembleLaunch(src) })
	layer["liveness.analyze_us"] = us(func() { liveness.Analyze(prog) })
	layer["kernels.build_us"] = bestNsPerOp(len(profs), func() {
		for _, p := range profs {
			kernels.Build(p, 0)
		}
	}) / 1e3
	layer["workload.load_us"] = us(func() { wp.Load(kernels.Limits{}) })

	// Admission.
	layer["serve.resolve_us"] = us(func() { warmReq.Resolve() })
	layer["runner.key_us"] = us(func() { benchJob.Key(runner.SimFingerprint) })
	layer["runner.validate_bench_us"] = us(func() { benchJob.Validate() })
	layer["runner.validate_program_us"] = us(func() { progJob.Validate() })

	// Result encoding and the cache tiers.
	layer["stats.encode_us"] = us(func() { json.Marshal(&res) })
	layer["stats.decode_us"] = us(func() {
		var r runner.Result
		json.Unmarshal(e.want[0], &r)
	})
	layer["runner.cache_put_mem_ns"] = bestNsPerOp(1, func() { memCache.Put(key, &res) })
	layer["runner.cache_get_mem_ns"] = bestNsPerOp(1, func() { memCache.Get(key) })
	layer["runner.cache_put_disk_us"] = us(func() { diskCache.Put(key, &res) })
	// A fresh Cache per Get: the entry must come off disk, not from memory.
	layer["runner.cache_get_disk_us"] = us(func() { runner.NewCache(diskDir).Get(key) })
	if _, source, ok := runner.NewCache(diskDir).Get(key); !ok || source != "disk" {
		return fmt.Errorf("disk cache micro-driver: entry served from %q, found %v", source, ok)
	}

	e.diskWarm(out)
	return e.fleetHop(out)
}

// diskWarm starts a second server on the first one's cache directory, as
// a restarted process would, and runs the warm set through it once: every
// job is admitted, queued, and answered from the disk tier.
func (e *serveEnv) diskWarm(out *outcome) {
	_, srv, hs := startServer(runner.NewCache(e.dir))
	defer stopServer(srv, hs)
	clients := newClients(hs.URL, 1)
	defer closeClients(clients)
	var lat []float64
	for i, req := range e.warm {
		var r opResult
		clients[0].runJob(req, nil, 0, 0, &r)
		out.attempted++
		if r.err != nil || string(r.result) != string(e.want[i]) {
			out.failed++
			out.check("disk-warm "+req.Bench, false, "err %v, result equal %v", r.err, r.err == nil)
			continue
		}
		lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
	}
	out.layer["serve.diskwarm_p50_ms"] = median(lat)
}

// hopWarmRepeats is how many times each cold job is resubmitted for the
// warm half of the fleet-hop measurement.
const hopWarmRepeats = 10

// fleetHop runs the same cold jobs, then warm resubmits of them, through a
// plain server and through a loopback coordinator with one worker; the
// difference of the medians is what the hop costs.
func (e *serveEnv) fleetHop(out *outcome) error {
	measure := func(base, tag string) (cold, warm float64) {
		clients := newClients(base, 1)
		defer closeClients(clients)
		var coldMS, warmMS []float64
		for rep := 0; rep <= hopWarmRepeats; rep++ {
			for i := range e.cold {
				var r opResult
				clients[0].runJob(e.coldRequest(i, tag), nil, 0, 0, &r)
				out.attempted++
				if r.err != nil {
					out.failed++
					out.check("fleet hop "+tag, false, "%v", r.err)
					continue
				}
				ms := float64(r.latency.Nanoseconds()) / 1e6
				if rep == 0 {
					coldMS = append(coldMS, ms)
				} else {
					warmMS = append(warmMS, ms)
				}
			}
		}
		return median(coldMS), median(warmMS)
	}

	_, direct, directHS := startServer(runner.NewCache(""))
	directCold, directWarm := measure(directHS.URL, "hop-direct")
	stopServer(direct, directHS)

	_, worker, workerHS := startServer(runner.NewCache(""))
	defer stopServer(worker, workerHS)
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{QueueCap: 1 << 16})
	coordHS := httptest.NewServer(coord)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx) // as in stopServer: the run is over either way
		coordHS.Close()
	}()
	if err := coord.AddWorker(workerHS.URL); err != nil {
		return fmt.Errorf("fleet hop: %w", err)
	}
	hopCold, hopWarm := measure(coordHS.URL, "hop-fleet")
	out.layer["fleet.hop_cold_ms"] = hopCold - directCold
	out.layer["fleet.hop_warm_ms"] = hopWarm - directWarm
	return nil
}

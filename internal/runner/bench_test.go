package runner

import (
	"os"
	"testing"

	"finereg/internal/gpu"
	"finereg/internal/workload"
)

// BenchmarkEngineDoWarm is the engine's whole overhead on an answered job:
// one Do that coalesces on nothing, hits the memory tier and counts. What
// it allocates is the caller's copy of the result.
func BenchmarkEngineDoWarm(b *testing.B) {
	p := tinyJob(b, "CS", Baseline())
	key := p.Key(SimFingerprint)
	e := &Engine{Cache: NewCache("")}
	if _, _, err := e.Do(key, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, err := e.Do(key, p); err != nil || !cached {
			b.Fatalf("warm Do: cached %v, err %v", cached, err)
		}
	}
}

// BenchmarkJobKey hashes a job's canonical encoding: once per admitted
// submission on a server, once per job in Engine.Run.
func BenchmarkJobKey(b *testing.B) {
	src, err := os.ReadFile("../../examples/saxpy.sasm")
	if err != nil {
		b.Fatal(err)
	}
	for name, j := range map[string]*Job{
		"bench":   tinyJob(b, "CS", Baseline()),
		"program": programJob(workload.Program{Source: string(src)}),
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.Key(SimFingerprint)
			}
		})
	}
}

// BenchmarkValidate is admission's check of a resolved job, paid by every
// submission before its key is hashed: a profile job on the 1-SM and on the
// paper's 16-SM machine (machine checks only — the cost must not grow with
// the machine), and a program job (assemble + liveness of saxpy.sasm).
func BenchmarkValidate(b *testing.B) {
	src, err := os.ReadFile("../../examples/saxpy.sasm")
	if err != nil {
		b.Fatal(err)
	}
	one, paper := tinyJob(b, "CS", FineRegDefault()), tinyJob(b, "CS", FineRegDefault())
	one.Cfg, paper.Cfg = gpu.Default().Scale(1), gpu.Default()
	for _, c := range []struct {
		name string
		job  *Job
	}{
		{"profile-1sm", one},
		{"profile-16sm", paper},
		{"program", programJob(workload.Program{Source: string(src)})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.job.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package runner

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
)

// TestAdmissionRefusesUnbuildableProfiles: a profile kernels.Generate
// refuses is refused by Validate. Admission used to check a looser subset,
// so each of these LI shapes was admitted and then failed in the worker
// ("kernels: LI: ... out of range / must be >= 1").
func TestAdmissionRefusesUnbuildableProfiles(t *testing.T) {
	for name, edit := range map[string]func(*kernels.Profile){
		"LoopTrips 0":        func(p *kernels.Profile) { p.LoopTrips = 0 },
		"Persistent 0":       func(p *kernels.Profile) { p.Persistent = 0 },
		"Regs 3":             func(p *kernels.Profile) { p.Regs = 3 },
		"WarpsPerCTA 40":     func(p *kernels.Profile) { p.WarpsPerCTA = 40 },
		"ColdRegs -1":        func(p *kernels.Profile) { p.ColdRegs = -1 },
		"ComputePerIter 1e9": func(p *kernels.Profile) { p.ComputePerIter = 1e9 },
	} {
		j := tinyJob(t, "LI", FineRegDefault())
		edit(&j.Profile)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: admitted", name)
		}
	}
	if err := tinyJob(t, "LI", FineRegDefault()).Validate(); err != nil {
		t.Errorf("LI itself refused: %v", err)
	}
}

var coldTrips atomic.Int32

// TestConcurrentJobsShareOneProgram: two engine jobs of one profile that
// no earlier lookup built, started together, find one program table entry
// — its program, liveness and decoded issue table shared by both runs on
// both goroutines — and return the bytes serial runs return. Run under
// -race, it is the check that nothing writes the shared value.
func TestConcurrentJobsShareOneProgram(t *testing.T) {
	prof, err := kernels.ProfileByName("LB")
	if err != nil {
		t.Fatal(err)
	}
	prof.LoopTrips = 4 + int(coldTrips.Add(1)) // a program no earlier lookup built, under -count too
	jobs := []*Job{
		{Cfg: tinyJob(t, "LB", Baseline()).Cfg, Profile: prof, Grid: 64, Policy: FineRegDefault()},
		{Cfg: tinyJob(t, "LB", Baseline()).Cfg, Profile: prof, Grid: 64, Policy: VTRegMutex(0.25)},
	}
	var (
		start sync.WaitGroup
		mu    sync.Mutex
		progs []*isa.Program
	)
	start.Add(len(jobs))
	e := &Engine{Jobs: len(jobs), Exec: func(ctx context.Context, key string, j *Job) (*Result, error) {
		start.Done()
		start.Wait() // both jobs look the profile up at once
		k, err := kernels.Build(j.Profile, j.Grid)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		progs = append(progs, k.Prog)
		mu.Unlock()
		return Simulate(ctx, key, j)
	}}
	batch := e.Run(jobs)
	if len(progs) != 2 || progs[0] != progs[1] {
		t.Fatal("concurrent jobs of one profile built two programs")
	}
	if k := kernels.MustBuild(prof, 1); k.Prog != progs[0] {
		t.Error("the entry the concurrent jobs built is not the one a later lookup finds")
	}
	for i, j := range jobs {
		if batch.Errs[i] != nil {
			t.Fatal(batch.Errs[i])
		}
		serial, err := Simulate(context.Background(), "", j)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(batch.Results[i])
		want, _ := json.Marshal(serial)
		if string(got) != string(want) {
			t.Errorf("%s: concurrent result differs from the serial run", j.Policy.Name())
		}
	}
}

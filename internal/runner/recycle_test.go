package runner

import (
	"context"
	"reflect"
	"testing"

	"finereg/internal/trace"
)

// TestLateStopReachesDeadMachine: Simulate stops its machine through
// context.AfterFunc, whose Stop can land after Simulate has returned and
// released the machine's SMs. Here the context is cancelled at the run's
// Final sample, so Stop races the release and the next job, which is built
// from the same released SMs. The GPU itself is never recycled, so the late
// Stop reaches only the dead machine: the next job completes with its
// normal result.
func TestLateStopReachesDeadMachine(t *testing.T) {
	j := tinyJob(t, "CS", FineRegDefault())
	want, err := Simulate(context.Background(), "", j)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		ctx, cancel := context.WithCancel(context.Background())
		late := *j
		late.Cfg.Progress = func(s trace.ProgressSample) {
			if s.Final {
				cancel()
			}
		}
		if _, err := Simulate(ctx, "", &late); err != nil {
			t.Fatalf("round %d: the cancelled job: %v", i, err)
		}
		got, err := Simulate(context.Background(), "", j)
		if err != nil {
			t.Fatalf("round %d: the job after a late Stop: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the job after a late Stop: %+v, want %+v", i, got.Metrics, want.Metrics)
		}
		cancel()
	}
}

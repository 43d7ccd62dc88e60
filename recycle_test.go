package finereg

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentRecycling: eight goroutines run at once on a 1-SM and a
// 16-SM machine, interleaved, so SMs one shape released are rebuilt for the
// other while other runs release theirs, and every result equals the same
// run done serially. Under -race this is the proof that a run never touches
// an SM after releasing it.
func TestConcurrentRecycling(t *testing.T) {
	shapes := []struct {
		cfg   Config
		bench string
		grid  int
	}{
		{ScaledConfig(1), "CS", 24},
		{ScaledConfig(16), "NW", 256},
	}
	want := make([]*Metrics, len(shapes))
	for i, sh := range shapes {
		m, err := RunBenchmark(sh.cfg, sh.bench, sh.grid, FineReg())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	const goroutines, runs = 8, 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range runs {
				i := (g + r) % len(shapes)
				sh := shapes[i]
				m, err := RunBenchmark(sh.cfg, sh.bench, sh.grid, FineReg())
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(m, want[i]) {
					t.Errorf("goroutine %d run %d (%s on %d SMs): %+v, serially %+v",
						g, r, sh.bench, sh.cfg.NumSMs, *m, *want[i])
				}
			}
		}()
	}
	wg.Wait()
}

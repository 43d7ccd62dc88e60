package liveness_test

import (
	"testing"
	"time"

	"finereg/internal/kernels"
	"finereg/internal/liveness"
)

// TestImmediatePostDomReturnsForEveryGenerator: every Table II generator's
// CFG gets its reconvergence points in bounded time. A generated program
// with a cold block has two exit blocks, which once sent the
// post-dominator fixpoint into an endless loop.
func TestImmediatePostDomReturnsForEveryGenerator(t *testing.T) {
	multiExit := 0
	for _, name := range kernels.Names() {
		prof, err := kernels.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := liveness.BuildCFG(kernels.MustBuild(prof, 1).Prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exits := 0
		for _, b := range g.Blocks {
			if len(b.Succs) == 0 {
				exits++
			}
		}
		if exits > 1 {
			multiExit++
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, b := range g.Blocks {
				g.ImmediatePostDom(b.ID)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: ImmediatePostDom did not return on a CFG of %d blocks and %d exits", name, len(g.Blocks), exits)
		}
	}
	if multiExit == 0 {
		t.Error("no generator has a CFG with several exits")
	}
}

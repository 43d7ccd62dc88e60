//go:build !race

package kernels

import "testing"

// TestWarmLookupAllocatesNothing: a lookup that finds its entry allocates
// nothing — admission looks up every submission's program, serve-mix's
// warm resubmits included. (Not under -race: the detector's
// instrumentation allocates on its own account.)
func TestWarmLookupAllocatesNothing(t *testing.T) {
	p, err := ProfileByName("LI")
	if err != nil {
		t.Fatal(err)
	}
	src := userSource(1 << 20)
	if _, err := Generate(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(src); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { Generate(p) }); n != 0 {
		t.Errorf("a warm Generate allocates %.1f objects", n)
	}
	if n := testing.AllocsPerRun(100, func() { Assemble(src) }); n != 0 {
		t.Errorf("a warm Assemble allocates %.1f objects", n)
	}
}

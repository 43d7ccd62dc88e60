package exec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"finereg/internal/isa"
)

func TestVecAdd(t *testing.T) {
	const n = 256 // 8 warps
	baseA, baseB, baseC := uint32(0), uint32(4*n), uint32(8*n)
	m := &Machine{Mem: make([]byte, 12*n)}
	for i := 0; i < n; i++ {
		m.WriteF32(int(baseA)+4*i, float32(i))
		m.WriteF32(int(baseB)+4*i, 2*float32(i))
	}
	p := VecAdd(baseA, baseB, baseC)
	if err := m.Launch(p, 2, 128); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := m.ReadF32(int(baseC)+4*i), 3*float32(i); got != want {
			t.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestSaxpy(t *testing.T) {
	const n = 64
	alpha := float32(2.5)
	baseX, baseY := uint32(0), uint32(4*n)
	m := &Machine{Mem: make([]byte, 8*n)}
	for i := 0; i < n; i++ {
		m.WriteF32(4*i, float32(i))
		m.WriteF32(int(baseY)+4*i, 1)
	}
	p := Saxpy(math.Float32bits(alpha), baseX, baseY)
	if err := m.Launch(p, 1, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := alpha*float32(i) + 1
		if got := m.ReadF32(int(baseY) + 4*i); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAbsDiffDivergence(t *testing.T) {
	const n = 64
	baseA, baseB, baseOut := uint32(0), uint32(4*n), uint32(8*n)
	m := &Machine{Mem: make([]byte, 12*n)}
	rng := rand.New(rand.NewSource(42))
	a := make([]int32, n)
	b := make([]int32, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = int32(rng.Intn(1000)), int32(rng.Intn(1000))
		m.WriteU32(int(baseA)+4*i, uint32(a[i]))
		m.WriteU32(int(baseB)+4*i, uint32(b[i]))
	}
	if err := m.Launch(AbsDiff(baseA, baseB, baseOut), 1, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := a[i] - b[i]
		if want < 0 {
			want = -want
		}
		if got := int32(m.ReadU32(int(baseOut) + 4*i)); got != want {
			t.Fatalf("out[%d] = %d, want |%d-%d| = %d", i, got, a[i], b[i], want)
		}
	}
}

func TestDotChunksLoop(t *testing.T) {
	const n, trips = 32, 8
	total := n * trips
	baseX, baseY, baseOut := uint32(0), uint32(4*total), uint32(8*total)
	m := &Machine{Mem: make([]byte, 12*total)}
	for i := 0; i < total; i++ {
		m.WriteF32(int(baseX)+4*i, 1)
		m.WriteF32(int(baseY)+4*i, float32(i%5))
	}
	if err := m.Launch(DotChunks(baseX, baseY, baseOut, n, trips), 1, n); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < n; tid++ {
		var want float32
		for k := 0; k < trips; k++ {
			want += float32((tid + k*n) % 5)
		}
		if got := m.ReadF32(int(baseOut) + 4*tid); got != want {
			t.Fatalf("out[%d] = %v, want %v", tid, got, want)
		}
	}
}

func TestBarrierSharedMemory(t *testing.T) {
	// Warp 0 writes shared[tid'] = tid'*3, all warps barrier, then every
	// thread reads its own slot back and stores it to global memory.
	const warps = 4
	const threads = warps * 32
	b := isa.NewBuilder("barrier")
	b.Shf(1, 0, 2)             // R1 = tid*4 (global tid == local tid with 1 CTA)
	b.MovI(2, 3)               //
	b.IMul(3, 0, 2)            // R3 = tid*3
	b.Sts(3, 1)                // shared[tid] = tid*3
	b.Bar()                    //
	b.Lds(4, 1)                // R4 = shared[tid]
	b.MovI(5, 0)               // out base 0
	b.IAdd(6, 5, 1)            //
	b.Stg(4, 6, isa.MemDesc{}) // out[tid] = R4
	b.Exit()
	p := b.MustBuild(0)
	m := &Machine{Mem: make([]byte, 4*threads), SharedBytes: 4 * threads}
	if err := m.Launch(p, 1, threads); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < threads; tid++ {
		if got := m.ReadU32(4 * tid); got != uint32(tid*3) {
			t.Fatalf("out[%d] = %d, want %d", tid, got, tid*3)
		}
	}
}

func TestLaunchRejectsBadGeometry(t *testing.T) {
	m := &Machine{Mem: make([]byte, 1024)}
	p := VecAdd(0, 128, 256)
	if err := m.Launch(p, 1, 33); err == nil {
		t.Error("threadsPerCTA=33 should be rejected")
	}
	if err := m.Launch(p, 1, 0); err == nil {
		t.Error("threadsPerCTA=0 should be rejected")
	}
}

func TestOutOfBoundsLoad(t *testing.T) {
	m := &Machine{Mem: make([]byte, 64)} // far too small for tid*4 addressing
	p := VecAdd(0, 1<<20, 2<<20)
	err := m.Launch(p, 1, 32)
	if err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if !errors.Is(err, ErrExec) {
		t.Errorf("error %v should wrap ErrExec", err)
	}
}

func TestStepBudget(t *testing.T) {
	// An always-taken backward branch (predicate forced to 1) never
	// terminates; the step budget must catch it.
	b := isa.NewBuilder("infinite")
	b.MovI(1, 1)
	b.Label("top")
	b.Nop()
	b.Loop(1, "top", 1)
	b.Exit()
	p := b.MustBuild(0)
	m := &Machine{Mem: make([]byte, 64), MaxSteps: 1000}
	err := m.Launch(p, 1, 32)
	if err == nil || !errors.Is(err, ErrExec) {
		t.Fatalf("expected step-budget error, got %v", err)
	}
}

// Property: vecadd is correct for arbitrary inputs (functional executor as
// oracle-checked reference).
func TestVecAddQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 32
		m := &Machine{Mem: make([]byte, 12*n)}
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			a := rng.Float32() * 100
			c := rng.Float32() * 100
			m.WriteF32(4*i, a)
			m.WriteF32(4*n+4*i, c)
			want[i] = a + c
		}
		if err := m.Launch(VecAdd(0, 4*n, 8*n), 1, n); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if m.ReadF32(8*n+4*i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: divergence handling is mask-exact — per-lane results match a
// scalar reference for random inputs.
func TestAbsDiffQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 32
		baseA, baseB, baseOut := 0, 4*n, 8*n
		m := &Machine{Mem: make([]byte, 12*n)}
		a := make([]int32, n)
		bb := make([]int32, n)
		for i := 0; i < n; i++ {
			a[i], bb[i] = int32(rng.Intn(1<<20)), int32(rng.Intn(1<<20))
			m.WriteU32(baseA+4*i, uint32(a[i]))
			m.WriteU32(baseB+4*i, uint32(bb[i]))
		}
		if err := m.Launch(AbsDiff(uint32(baseA), uint32(baseB), uint32(baseOut)), 1, n); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := a[i] - bb[i]
			if want < 0 {
				want = -want
			}
			if int32(m.ReadU32(baseOut+4*i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

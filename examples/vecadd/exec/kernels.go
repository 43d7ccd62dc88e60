package exec

import "finereg/internal/isa"

// Functional kernels: small programs with real addressing semantics for
// the executor. By executor convention, R0 is preloaded with the global
// thread ID at launch; addresses are byte addresses formed in registers.

// VecAdd returns c[i] = a[i] + b[i] over float32 arrays. baseA/baseB/baseC
// are byte offsets of the three arrays in the executor's flat memory.
func VecAdd(baseA, baseB, baseC uint32) *isa.Program {
	b := isa.NewBuilder("vecadd")
	b.Shf(1, 0, 2)   // R1 = tid*4 (byte offset)
	b.MovI(2, baseA) // R2 = &a
	b.IAdd(3, 2, 1)  // R3 = &a[i]
	b.Ldg(4, 3, isa.MemDesc{Pattern: isa.PatCoalesced})
	b.MovI(5, baseB)
	b.IAdd(6, 5, 1)
	b.Ldg(7, 6, isa.MemDesc{Pattern: isa.PatCoalesced, Region: 1})
	b.FAdd(8, 4, 7)
	b.MovI(9, baseC)
	b.IAdd(10, 9, 1)
	b.Stg(8, 10, isa.MemDesc{Pattern: isa.PatCoalesced, Region: 2})
	b.Exit()
	return b.MustBuild(0)
}

// Saxpy returns y[i] = alpha*x[i] + y[i] with alpha's float32 bits given
// as an immediate.
func Saxpy(alphaBits, baseX, baseY uint32) *isa.Program {
	b := isa.NewBuilder("saxpy")
	b.Shf(1, 0, 2)
	b.MovI(2, baseX)
	b.IAdd(3, 2, 1)
	b.Ldg(4, 3, isa.MemDesc{Pattern: isa.PatCoalesced})
	b.MovI(5, baseY)
	b.IAdd(6, 5, 1)
	b.Ldg(7, 6, isa.MemDesc{Pattern: isa.PatCoalesced, Region: 1})
	b.MovI(8, alphaBits)
	b.FFma(9, 8, 4, 7) // y = alpha*x + y
	b.Stg(9, 6, isa.MemDesc{Pattern: isa.PatCoalesced, Region: 1})
	b.Exit()
	return b.MustBuild(0)
}

// AbsDiff computes out[i] = |a[i] - b[i]| for int32 inputs using a
// divergent branch: threads with a[i] < b[i] take the else path. It
// exercises the executor's PDOM reconvergence stack.
func AbsDiff(baseA, baseB, baseOut uint32) *isa.Program {
	b := isa.NewBuilder("absdiff")
	b.Shf(1, 0, 2)
	b.MovI(2, baseA)
	b.IAdd(3, 2, 1)
	b.Ldg(4, 3, isa.MemDesc{}) // R4 = a[i]
	b.MovI(5, baseB)
	b.IAdd(6, 5, 1)
	b.Ldg(7, 6, isa.MemDesc{Region: 1}) // R7 = b[i]
	b.ISetp(8, 4, 7)                    // R8 = a < b
	b.BraCond(8, "swap", 0, true)
	// then: diff = a - b  (a >= b). There is no ISUB; use IMUL by -1 via
	// two's complement: diff = a + (-b). Build -b = 0 - b with IMUL.
	b.MovI(9, 0xFFFFFFFF) // -1
	b.IMul(10, 7, 9)      // -b
	b.IAdd(11, 4, 10)     // a - b
	b.Bra("store")
	b.Label("swap")
	b.MovI(9, 0xFFFFFFFF)
	b.IMul(10, 4, 9)  // -a
	b.IAdd(11, 7, 10) // b - a
	b.Label("store")
	b.MovI(12, baseOut)
	b.IAdd(13, 12, 1)
	b.Stg(11, 13, isa.MemDesc{Region: 2})
	b.Exit()
	return b.MustBuild(0)
}

// DotChunks computes per-thread partial dot products with a loop:
// out[tid] = Σ_{k<trips} x[tid + k*n]*y[tid + k*n], exercising the
// executor's loop handling. n is the thread count; trips the loop count.
func DotChunks(baseX, baseY, baseOut, n, trips uint32) *isa.Program {
	b := isa.NewBuilder("dotchunks")
	b.MovI(1, 0)     // k = 0
	b.MovI(2, trips) // bound
	b.MovI(3, 0)     // acc (float 0.0 == bits 0)
	b.Mov(4, 0)      // idx = tid
	b.Label("body")
	b.Shf(5, 4, 2) // byte offset = idx*4
	b.MovI(6, baseX)
	b.IAdd(7, 6, 5)
	b.Ldg(8, 7, isa.MemDesc{})
	b.MovI(9, baseY)
	b.IAdd(10, 9, 5)
	b.Ldg(11, 10, isa.MemDesc{Region: 1})
	b.FFma(3, 8, 11, 3)
	b.IAddI(4, 4, n) // idx += n
	b.IAddI(1, 1, 1) // k++
	b.ISetp(12, 1, 2)
	b.Loop(12, "body", int(trips))
	b.Shf(5, 0, 2)
	b.MovI(13, baseOut)
	b.IAdd(14, 13, 5)
	b.Stg(3, 14, isa.MemDesc{Region: 2})
	b.Exit()
	return b.MustBuild(0)
}

package diff

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/sm"
)

// TestProgramValuesImmutable: the program table's values — each golden
// kernel's program, its liveness and its decoded issue table — are shared
// by every run of that program, so no run may write them. Their contents
// are hashed, the whole golden matrix runs (every policy, both schedulers,
// which reproduces the goldens), and the hashes must not move; the table
// must also still hand out the same values, not rebuilt ones.
func TestProgramValuesImmutable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix sweep skipped in -short")
	}
	type value struct {
		prog, live, info any
		sum              [sha256.Size]byte
	}
	cases := goldenKernels(t)
	snapshot := func() []value {
		vs := make([]value, len(cases))
		for i := range cases {
			gc := &cases[i]
			k := kernels.MustBuild(gc.profile(t), gc.Grid)
			info := sm.Decode(k, gc.config().SM)
			h := sha256.New()
			for _, v := range []any{k.Prog, k.Live, info} {
				deepHash(h, reflect.ValueOf(v), map[uintptr]bool{})
			}
			vs[i] = value{prog: k.Prog, live: k.Live, info: info}
			h.Sum(vs[i].sum[:0])
		}
		return vs
	}
	before := snapshot()
	for i := range cases {
		gc := &cases[i]
		outs, err := RunMatrix(gc.config(), gc.profile(t), gc.Grid)
		if err != nil {
			t.Fatalf("%s/%d: %v", gc.Kernel, gc.Grid, err)
		}
		for _, o := range outs {
			gc.Cells = append(gc.Cells, goldenCell{
				Label:        o.Label,
				Instructions: o.Metrics.Instructions,
				CTAsLaunched: o.Metrics.CTAsLaunched,
				Cycles:       o.Metrics.Cycles,
			})
		}
	}
	compareGolden(t, cases)
	for i, after := range snapshot() {
		b := before[i]
		if after.prog != b.prog || after.live != b.live || after.info != b.info {
			t.Errorf("%s: the table rebuilt the program value during the matrix", cases[i].Kernel)
		}
		if after.sum != b.sum {
			t.Errorf("%s: the golden matrix wrote the shared program, liveness or issue table", cases[i].Kernel)
		}
	}
}

// deepHash writes v's contents into h, following pointers (each pointee
// once) and reading unexported fields.
func deepHash(h hash.Hash, v reflect.Value, seen map[uintptr]bool) {
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		if seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		deepHash(h, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			word(0)
			return
		}
		deepHash(h, v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			deepHash(h, v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			deepHash(h, v.Index(i), seen)
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("deepHash: unhandled kind %s", v.Kind()))
	}
}

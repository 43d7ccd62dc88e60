package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A tiny profile.proto writer, enough to can a profile for the reader.
type protoWriter struct{ bytes.Buffer }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}
func (w *protoWriter) intField(field int, v uint64) { w.varint(uint64(field)<<3 | 0); w.varint(v) }
func (w *protoWriter) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}
func (w *protoWriter) packed(field int, vs ...uint64) {
	var p protoWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytesField(field, p.Bytes())
}

// cannedProfile encodes stacks (leaf first; "a+b" is one location whose
// frames a and b were inlined together, a innermost) with one CPU value each.
func cannedProfile(t *testing.T, stacks [][]string, values []uint64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var prof, funcs, locs protoWriter
	nextLoc := uint64(1)
	for si, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			var loc protoWriter
			loc.intField(1, nextLoc)
			for _, fn := range bytes.Split([]byte(frame), []byte("+")) {
				name := string(fn)
				if funcID[name] == 0 {
					funcID[name] = uint64(len(funcID) + 1)
					var f protoWriter
					f.intField(1, funcID[name])
					f.intField(2, intern(name))
					funcs.bytesField(5, f.Bytes())
				}
				var line protoWriter
				line.intField(1, funcID[name])
				line.intField(2, 42)
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var s protoWriter
		if si%2 == 0 {
			s.packed(1, locIDs...)
		} else { // unpacked repeated field, which older writers emit
			for _, id := range locIDs {
				s.intField(1, id)
			}
		}
		s.packed(2, 1, values[si]) // samples/count, cpu/nanoseconds
		prof.bytesField(2, s.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	prof.intField(9, 1234) // time_nanos: a varint field the reader skips
	prof.varint(13<<3 | 1) // an unknown fixed64 field
	prof.Write(make([]byte, 8))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestDecodeAndAttributeCannedProfile(t *testing.T) {
	stacks := [][]string{
		// malloc under the issue loop is the sm layer's time.
		{"runtime.mallocgc", "finereg/internal/sm.(*SM).issue", "finereg/internal/gpu.(*GPU).Run", "finereg.RunBenchmark", "main.(*simEnv).phase"},
		// inlined leaf: Cache.Access inlined into Hierarchy.Access.
		{"finereg/internal/mem.(*Cache).Access+finereg/internal/mem.(*Hierarchy).Access", "finereg/internal/sm.(*SM).Tick"},
		{"encoding/json.Marshal", "finereg/internal/serve.writeJSON", "net/http.(*conn).serve"},
		{"finereg/internal/serve/metrics.(*Registry).Render", "net/http.HandlerFunc.ServeHTTP"},
		{"syscall.Syscall", "net/http.(*conn).serve"},
		{"runtime.gcBgMarkWorker"},
		{"encoding/json.Unmarshal", "main.(*mixClient).runJob"},
		{"finereg/internal/telemetry.(*Counter).Add", "finereg/internal/sm.(*SM).Tick"},
		{"finereg/benchmark.bestNsPerOp"},
	}
	values := []uint64{30, 20, 10, 5, 5, 10, 10, 5, 5}
	samples, err := decodeProfile(cannedProfile(t, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[1].Stack; len(got) != 3 || got[0] != "finereg/internal/mem.(*Cache).Access" || got[2] != "finereg/internal/sm.(*SM).Tick" {
		t.Errorf("inlined frames not expanded leaf-first: %v", got)
	}
	wantLayer := []string{"sm", "mem", "serve", "serve", "nethttp", "runtime", "bench", "other", "bench"}
	for i, s := range samples {
		if s.Value != int64(values[i]) {
			t.Errorf("sample %d value %d, want %d", i, s.Value, values[i])
		}
		if got := attribute(s.Stack); got != wantLayer[i] {
			t.Errorf("stack %v charged to %q, want %q", s.Stack, got, wantLayer[i])
		}
	}
	shares, total := cpuShares(samples)
	if total != 100 {
		t.Errorf("total = %d, want 100", total)
	}
	var sum float64
	for layer, s := range shares {
		sum += s
		if _, ok := cpuShareLayers[layer]; !ok {
			t.Errorf("layer %q has no metric", layer)
		}
	}
	if math.Abs(sum-1) > 1e-12 || shares["sm"] != 0.30 || shares["serve"] != 0.15 || shares["bench"] != 0.15 {
		t.Errorf("shares = %v (sum %v)", shares, sum)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("plain bytes decoded")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0xff, 0xff, 0xff, 0x0f}) // sample longer than the input
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("truncated message decoded")
	}
}

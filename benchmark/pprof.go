package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the CPU profiles runtime/pprof writes (gzip-compressed
// profile.proto), so host time can be charged to layers without a new
// dependency and without touching the packages being measured. Only the
// fields attribution needs are decoded: samples, locations, their inlined
// lines, function names and the string table.

// profSample is one decoded stack, leaf frame first, with the value of the
// profile's last sample type (CPU nanoseconds for a CPU profile).
type profSample struct {
	Stack []string
	Value int64
}

var errProto = errors.New("pprof: malformed protobuf")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped over
// and returned with a nil payload.
func (r *protoReader) next() (field int, wire int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 5:
		err = r.skip(4)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = errProto
	}
	return field, wire, val, payload, err
}

func (r *protoReader) skip(n int) error {
	if len(r.b) < n {
		return errProto
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	pr := protoReader{payload}
	for len(pr.b) > 0 {
		v, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type profLocation struct{ funcIDs []uint64 } // innermost inlined frame first

// decodeProfile parses a gzip-compressed pprof profile into stacks.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locations = map[uint64]profLocation{}
		funcName  = map[uint64]uint64{} // function id → string index
		strs      []string
	)
	top := protoReader{raw}
	for len(top.b) > 0 {
		field, wire, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		switch field {
		case 2: // Sample
			var s rawSample
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, w, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, w, v, p); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarint(s.values, w, v, p); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var loc profLocation
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, w, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					lr := protoReader{p}
					for len(lr.b) > 0 {
						lf, lw, lv, _, err := lr.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 && lw == 0 {
							loc.funcIDs = append(loc.funcIDs, lv)
						}
					}
				}
			}
			locations[id] = loc
		case 5: // Function
			var id, name uint64
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, w, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if w != 0 {
					continue
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Value: int64(s.values[len(s.values)-1])}
		for _, lid := range s.locs {
			for _, fid := range locations[lid].funcIDs {
				idx := funcName[fid]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				ps.Stack = append(ps.Stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// Function-name prefixes of this repository's code. The benchmark is
// package main in its own binary and finereg/benchmark under go test.
const (
	internalPrefix = "finereg/internal/"
	facadePrefix   = "finereg."
)

var benchPrefixes = []string{"main.", "finereg/benchmark."}

// layers with a cpu_share metric of their own; any other internal package
// lands in "other".
var profileLayers = map[string]bool{
	"sm": true, "mem": true, "core": true, "regfile": true, "gpu": true,
	"isa": true, "liveness": true, "kernels": true, "workload": true,
	"stats": true, "runner": true, "serve": true, "fleet": true,
}

// frameLayer names the layer a function belongs to, or "" for code outside
// the repository (runtime, standard library).
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if profileLayers[pkg] {
			return pkg
		}
		return "other"
	}
	for _, p := range benchPrefixes {
		if strings.HasPrefix(fn, p) {
			return "bench"
		}
	}
	if strings.HasPrefix(fn, facadePrefix) {
		return "other"
	}
	return ""
}

// attribute charges one stack to a layer: the deepest frame that belongs
// to a repo package wins, so malloc, memmove, encoding/json and sha256 time
// lands on the layer that called it. Stacks with no repo frame go to
// nethttp when net/http is on them and to runtime otherwise.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") {
			return "nethttp"
		}
	}
	return "runtime"
}

// cpuShares folds samples into per-layer shares that sum to 1.
func cpuShares(samples []profSample) (shares map[string]float64, total int64) {
	byLayer := map[string]int64{}
	for _, s := range samples {
		byLayer[attribute(s.Stack)] += s.Value
		total += s.Value
	}
	shares = make(map[string]float64, len(byLayer))
	for l, v := range byLayer {
		shares[l] = safeDiv(float64(v), float64(total))
	}
	return shares, total
}

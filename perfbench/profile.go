package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the pprof profile format (gzip-compressed protocol
// buffers, github.com/google/pprof/proto/profile.proto) — just enough to
// attribute CPU samples to the repository's packages without a dependency.

// cpuSample is one profile sample: its stack of function names, leaf first,
// with inlined frames expanded, and its value (CPU nanoseconds).
type cpuSample struct {
	stack []string
	value int64
}

// parseProfile decodes a gzip-compressed (or raw) pprof profile and returns
// its samples, taking each sample's last value (CPU time for CPU profiles).
func parseProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err := pbFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, w, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				name := "?"
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				cs.stack = append(cs.stack, name)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks the fields of one protocol-buffer message, calling fn with
// the field number, wire type, and the varint value or length-delimited
// bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes a varint, returning the value and the bytes it used
// (0 when b is truncated, negative on overflow).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	if len(b) >= 10 {
		return 0, -1
	}
	return 0, 0
}

// pbAppendUints appends a repeated integer field, packed or not.
func pbAppendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := pbVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// layerOf names the layer a function belongs to: the repository package
// (ucmp/internal/sim -> "sim"), "go" for the Go runtime (scheduler,
// allocator, garbage collector), "bench" for this benchmark, or "" for the
// rest of the standard library.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // type arguments
		pkg = pkg[:i]
	}
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "ucmp/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "ucmp/internal/"), "/", 2)[0]
	case pkg == "main" || strings.HasPrefix(pkg, "ucmp/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	}
	return ""
}

// attribute returns each layer's share of the samples' total value. A
// sample belongs to the layer of its innermost frame, except that standard
// library frames outside the runtime (sort, math, hash...) are charged to
// their nearest caller in a layer; samples with no such frame go to "other".
func attribute(samples []cpuSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		by[layer] += s.value
		total += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range by {
		out[l] = float64(v) / float64(total)
	}
	return out
}

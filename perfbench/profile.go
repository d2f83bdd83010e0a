package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host-time attribution. A CPU profile sample is charged to the innermost
// frame that belongs to one of the repository's packages (repro/internal/*),
// so time in the standard library or the runtime — JSON encoding, map
// access, allocation — counts against the layer that asked for it. Samples
// with no such frame (GC workers, the scheduler, this benchmark's own loop)
// go to "runtime".

const internalPrefix = "repro/internal/"

// layerOf names the layer a stack (leaf first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "server/client":
			return "client"
		case "server/api":
			return "server"
		}
		if layerIndex(pkg) >= 0 {
			return pkg
		}
		return "other"
	}
	return "runtime"
}

// cycleLoopLayers are the packages the simulator's cycle loop ticks.
var cycleLoopLayers = []string{"sm", "workload", "cache", "noc", "llc", "dram", "core", "addrmap", "gpu", "mem", "ring", "pool"}

// serviceLayers are the packages of the simd service path.
var serviceLayers = []string{"server", "client", "simstore", "checkpoint", "cluster", "obs"}

// profileLayers is every layer a host share is reported for.
var profileLayers = append(append(append([]string{}, cycleLoopLayers...), serviceLayers...), "runtime", "other")

func layerIndex(name string) int {
	for i, l := range profileLayers {
		if l == name {
			return i
		}
	}
	return -1
}

// hostProfile is a CPU profile reduced to CPU nanoseconds per layer.
type hostProfile struct {
	ns    map[string]float64
	total float64
}

func (h hostProfile) share(layer string) float64 { return ratio(h.ns[layer], h.total) }

// attribute charges every sample of a decoded profile to its layer.
func attribute(samples []profSample) hostProfile {
	h := hostProfile{ns: make(map[string]float64)}
	for _, s := range samples {
		h.ns[layerOf(s.stack)] += s.value
		h.total += s.value
	}
	return h
}

// profSample is one stack (function names, leaf first, inlined callees
// before their callers) and its CPU time.
type profSample struct {
	stack []string
	value float64
}

// parseProfile decodes a gzipped pprof protobuf as written by
// runtime/pprof.StartCPUProfile. Only the fields attribution needs are read:
// sample types, samples, locations with their lines, functions and the
// string table.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	err = forEachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return forEachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := forEachField(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, pb)
				case 2:
					for _, x := range appendPacked(nil, v, pb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := forEachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forEachField(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f int, v uint64, _ []byte) error {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); take the cpu
	// column, falling back to the last one.
	col := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			col = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if col < 0 || col >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		out = append(out, profSample{stack: stack, value: float64(s.values[col])})
	}
	return out, nil
}

// forEachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b. Fixed-width fields are
// skipped.
func forEachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b, non-nil).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

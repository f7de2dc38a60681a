package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the traced op's CPU sampling rate. The default 100 Hz
// gives a two-second op too few samples to split thirteen ways; the
// kernel's timer tick may cap the rate lower than asked.
const profileHz = 500

// Traced ops repeat, each profiled on its own, until their samples reach
// minProfileSamples or maxTracedOps ops have run.
const (
	minProfileSamples = 500
	maxTracedOps      = 4
)

// tracedOps runs ops under the CPU profiler and returns each layer's
// share of the samples in percent and the sample count. Each op counts
// as attempted and must pass its checks; only passing ops are returned.
func tracedOps(res *result, b runnable) ([]opResult, map[string]float64, int64) {
	var ops []opResult
	counts := map[string]int64{}
	var total int64
	for n := 0; n < maxTracedOps && total < minProfileSamples; n++ {
		op, samples, err := profiledOp(b)
		if !res.record(op, err) {
			continue
		}
		ops = append(ops, op)
		c, t := attribute(samples)
		for l, k := range c {
			counts[l] += k
		}
		total += t
	}
	shares := make(map[string]float64, len(counts))
	for l, n := range counts {
		shares[l] = 100 * ratio(float64(n), float64(total))
	}
	return ops, shares, total
}

// profiledOp runs one op under the CPU profiler and returns its samples.
func profiledOp(b runnable) (opResult, []profileSample, error) {
	var buf bytes.Buffer
	// Setting the rate first is the only way to raise it: StartCPUProfile
	// then keeps this rate (and prints that it could not set its own).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return opResult{}, nil, err
	}
	op, err := measure(b.op)
	pprof.StopCPUProfile()
	if err != nil {
		return op, nil, err
	}
	samples, err := decodeProfile(buf.Bytes())
	return op, samples, err
}

// attribute charges each sample to the innermost padc/internal/<layer>
// frame on its stack — so a map access under MSHR.Lookup counts to cache —
// and samples with no simulator frame (GC, scheduler, syscalls) to
// runtime. It returns the sample count per layer and in total.
func attribute(samples []profileSample) (map[string]int64, int64) {
	counts := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	return counts, total
}

const internalPrefix = "padc/internal/"

func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		// stats, workload and exp are the simulator's result types,
		// inputs and experiment tables.
		return "sim"
	}
	return "runtime"
}

// profileSample is one CPU-profile sample: its stack as function names,
// leaf first and inlined callees before their callers, and its count.
type profileSample struct {
	stack []string
	count int64
}

var errProfile = errors.New("malformed profile")

// decodeProfile reads the samples of a (gzipped) pprof protobuf profile.
// It decodes only the fields attribution needs: Profile.sample (2),
// location (4), function (5) and string_table (6); Sample.location_id (1)
// and value (2); Location.id (1) and line (4); Line.function_id (1);
// Function.id (1) and name (2).
func decodeProfile(data []byte) ([]profileSample, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, fmt.Errorf("%w: sample without values", errProfile)
		}
		ps := profileSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				name, ok := funcs[f]
				if !ok || name >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: dangling function %d", errProfile, f)
				}
				ps.stack = append(ps.stack, strs[name])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields calls fn for each field of one protobuf message: varint fields
// with their value in v, length-delimited ones with their bytes in b (nil
// for varints). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProfile
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProfile
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errProfile
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProfile
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return errProfile
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (b holds
// the run) or not (v holds one value).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProfile
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

// pb builds protobuf messages for a synthetic profile.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestAttributeSyntheticProfile decodes a hand-built gzipped profile and
// charges each sample to the innermost simulator frame: a runtime map
// access under MSHR.Lookup goes to cache, an inlined scheduler frame to
// memctrl, stats to sim, and a stack without simulator frames to runtime.
func TestAttributeSyntheticProfile(t *testing.T) {
	names := []string{"",
		"runtime.mapaccess2_fast64",                 // 1
		"padc/internal/cache.(*MSHR).Lookup",        // 2
		"padc/internal/sim.(*System).Load",          // 3
		"runtime.gcBgMarkWorker",                    // 4
		"padc/internal/memctrl/sched.Stack.Compare", // 5
		"padc/internal/memctrl.(*Controller).Tick",  // 6
		"padc/internal/stats.Results.RBH",           // 7
		"main.main",                                 // 8
	}
	var p pb
	for id := uint64(1); id < uint64(len(names)); id++ {
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, id)) // function id → name index id
	}
	for id, fns := range map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5, 6}, 6: {7}, 7: {8}} {
		loc := pb(nil).varint(1, id)
		for _, f := range fns { // location 5 holds the inlined scheduler frame first
			loc = loc.bytes(4, pb(nil).varint(1, f).varint(2, 10))
		}
		p = p.bytes(4, loc)
	}
	p = p.bytes(2, pb(nil).bytes(1, packed(1, 2, 3)).bytes(2, packed(3, 30_000_000)))
	p = p.bytes(2, pb(nil).varint(1, 4).varint(2, 2).varint(2, 20_000_000)) // unpacked fields
	p = p.bytes(2, pb(nil).bytes(1, packed(5, 3)).bytes(2, packed(4, 40_000_000)))
	p = p.bytes(2, pb(nil).bytes(1, packed(6, 7)).bytes(2, packed(1, 10_000_000)))
	for _, s := range names {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := samples[2].stack, []string{names[5], names[6], names[3]}; !reflect.DeepEqual(got, want) {
		t.Errorf("inlined stack = %q, want %q", got, want)
	}
	counts, total := attribute(samples)
	want := map[string]int64{"cache": 3, "runtime": 2, "memctrl": 4, "sim": 1}
	if !reflect.DeepEqual(counts, want) || total != 10 {
		t.Errorf("attribution = %v (total %d), want %v (total 10)", counts, total, want)
	}

	if _, err := decodeProfile(p[:len(p)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

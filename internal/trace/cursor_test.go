package trace

import (
	"math/rand"
	"testing"
)

// cursorPatterns returns one pattern of every kind, seeded by seed.
func cursorPatterns(seed uint64) []Pattern {
	return []Pattern{
		StreamPattern{Seed: seed, Streams: 3, StreamLen: 5, WSLines: 1 << 20, StrideLn: 2},
		RandomPattern{Seed: seed, WSLines: 1 << 20},
		RandomPattern{Seed: seed, WSLines: 1 << 20, Dep: true},
		LoopPattern{Seed: seed, Len: 7, WSLines: 1 << 16},
		ShuffledLoopPattern{Seed: seed, Len: 9, WSLines: 1 << 16},
		PhasedPattern{
			A:    StreamPattern{Seed: seed, Streams: 2, StreamLen: 4, WSLines: 1 << 18},
			B:    RandomPattern{Seed: seed ^ 1, WSLines: 1 << 18, Dep: true},
			ALen: 3, BLen: 2,
		},
		MixPattern{
			Seed: seed,
			A:    RandomPattern{Seed: seed, WSLines: 1 << 18, Dep: true},
			B:    ShuffledLoopPattern{Seed: seed ^ 2, Len: 6, WSLines: 1 << 18},
			NumA: 1, Den: 3,
		},
	}
}

// checkCursor drives a Cursor over one pattern kind through a stream of
// steps and seeks that ops encodes, and checks every instruction it
// returns against Gen.At. A byte below 0x80 steps that many instructions;
// one below 0xc0 seeks back up to 63 instructions, as runahead's exit
// does; any other byte seeks to an arbitrary index.
func checkCursor(t *testing.T, seed, start uint64, kind, repeat, memEvery uint8, ops []byte) {
	pats := cursorPatterns(seed)
	g := Gen{Pattern: pats[int(kind)%len(pats)], MemEvery: uint64(memEvery % 17), Repeat: uint64(repeat % 21)}
	c := g.Cursor(start)
	for pos, b := range ops {
		switch i := c.Index(); {
		case b < 0x80:
			for n := 0; n < int(b) && i != ^uint64(0); n, i = n+1, i+1 {
				if got, want := c.Next(), g.At(i); got != want {
					t.Fatalf("%s, MemEvery %d, Repeat %d: instruction %d is %+v, At says %+v",
						g.Pattern.Name(), g.MemEvery, g.Repeat, i, got, want)
				}
			}
		case b < 0xc0:
			c.Seek(i - min(i, uint64(b&0x3f)))
		default:
			c.Seek(mix64(seed, uint64(pos)) >> (b & 0x3f))
		}
	}
	// The last index, which the walk above never steps past.
	last := g.Cursor(^uint64(0))
	if got, want := last.Next(), g.At(^uint64(0)); got != want {
		t.Fatalf("%s: the last instruction is %+v, At says %+v", g.Pattern.Name(), got, want)
	}
}

// FuzzCursor checks the Cursor against Gen.At, the oracle, over every
// pattern kind, Repeat 0–20, MemEvery 0–16 and seeks to arbitrary
// indices.
func FuzzCursor(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(0), uint8(12), uint8(4), []byte{100, 0x85, 100, 0xc0, 50})
	f.Add(uint64(2), uint64(7), uint8(2), uint8(0), uint8(1), []byte{127, 0xbf, 127, 0xff, 20})
	f.Add(uint64(3), ^uint64(0)-40, uint8(5), uint8(20), uint8(16), []byte{60, 0x90, 60})
	f.Add(uint64(4), uint64(0), uint8(6), uint8(3), uint8(0), []byte{127, 0xc1, 127})
	r := rand.New(rand.NewSource(1))
	for kind := uint8(0); kind < 7; kind++ {
		ops := make([]byte, 64)
		r.Read(ops)
		f.Add(r.Uint64(), r.Uint64()>>uint(r.Intn(64)), kind, uint8(r.Intn(21)), uint8(r.Intn(17)), ops)
	}
	f.Fuzz(checkCursor)
}

// countPattern counts its MemOp calls.
type countPattern struct {
	Pattern
	calls *int
}

func (p countPattern) MemOp(m uint64) MemOp {
	*p.calls++
	return p.Pattern.MemOp(m)
}

// TestCursorAsksPatternOncePerLine pins what the cursor saves: walking
// n memory ops of a Gen with Repeat r calls Pattern.MemOp once per
// r-touch run, and a seek back onto the op the cursor holds calls it not
// at all.
func TestCursorAsksPatternOncePerLine(t *testing.T) {
	calls := 0
	g := Gen{Pattern: countPattern{RandomPattern{Seed: 9, WSLines: 1 << 20}, &calls}, MemEvery: 3, Repeat: 12}
	c := g.Cursor(0)
	for i := 0; i < 3*12*50; i++ {
		c.Next()
	}
	if calls != 50 {
		t.Fatalf("600 memory ops in 12-touch runs made %d MemOp calls, want 50", calls)
	}
	c.Next() // the first touch of run 50
	c.Seek(c.Index() - 1)
	c.Next() // the same touch again
	if calls != 51 {
		t.Fatalf("a seek within the held run made %d MemOp calls, want 51", calls)
	}
}

package cache

import (
	"math/rand"
	"testing"
)

// cacheModel is the reference the flat cache is checked against: a map
// from line to its flags plus, per set, the lines present from least to
// most recently used.
type cacheModel struct {
	ways    int
	setMask uint64
	lines   map[uint64]*modelLine
	lru     map[uint64][]uint64 // set -> lines, least recent first
}

type modelLine struct{ prefetch, fillHit, marked bool }

func newCacheModel(ways int, sets uint64) *cacheModel {
	return &cacheModel{ways: ways, setMask: sets - 1, lines: map[uint64]*modelLine{}, lru: map[uint64][]uint64{}}
}

// touch makes line the set's most recently used.
func (m *cacheModel) touch(line uint64) {
	s := line & m.setMask
	l := m.lru[s]
	for i, v := range l {
		if v == line {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	m.lru[s] = append(l, line)
}

func (m *cacheModel) access(line uint64) HitInfo {
	l, ok := m.lines[line]
	if !ok {
		return HitInfo{}
	}
	m.touch(line)
	info := HitInfo{Hit: true, WasPrefetch: l.prefetch, FillRowHit: l.fillHit, Marked: l.marked}
	if l.prefetch {
		l.prefetch, l.marked = false, false
	}
	return info
}

func (m *cacheModel) fill(line uint64, prefetch, fillHit bool) Eviction {
	if l, ok := m.lines[line]; ok {
		l.prefetch = l.prefetch && prefetch
		m.touch(line)
		return Eviction{}
	}
	var ev Eviction
	s := line & m.setMask
	if l := m.lru[s]; len(l) == m.ways {
		old := m.lines[l[0]]
		ev = Eviction{Valid: true, LineAddr: l[0], WasPrefetch: old.prefetch, Marked: old.marked}
		delete(m.lines, l[0])
		m.lru[s] = l[1:]
	}
	m.lines[line] = &modelLine{prefetch: prefetch, fillHit: fillHit}
	m.touch(line)
	return ev
}

func (m *cacheModel) mark(line uint64) {
	if l, ok := m.lines[line]; ok {
		l.marked = true
	}
}

// cacheOp is one step of a churn: kind 0 is an Access, 1 to 4 a Fill
// (prefetch when kind is even, a row-hit fill when kind > 2), 5 a
// Contains and 6 a Mark of line.
type cacheOp struct {
	kind int
	line uint64
}

// cacheLine builds a line of a cache with 2^setBits sets from a small
// tag and a set, with a high tag bit when high, so sets fill, evict and
// refill, and evicted lines are rebuilt from wide tags.
func cacheLine(setBits int, tag, set uint64, high bool) uint64 {
	if high {
		tag |= 1 << (62 - setBits)
	}
	return tag<<setBits | set
}

// checkCacheChurn applies ops to a fresh cache of ways × sets and to the
// model, and fails on the first disagreement.
func checkCacheChurn(t *testing.T, ways int, sets uint64, ops []cacheOp) {
	t.Helper()
	c := New(Config{Bytes: uint64(ways) * sets * 64, Ways: ways, LineBytes: 64})
	m := newCacheModel(ways, sets)
	for step, op := range ops {
		switch op.kind {
		case 0:
			if got, want := c.Access(op.line), m.access(op.line); got != want {
				t.Fatalf("%d ways × %d sets, step %d: Access(%#x) = %+v, model %+v", ways, sets, step, op.line, got, want)
			}
		case 1, 2, 3, 4:
			pref, hit := op.kind%2 == 0, op.kind > 2
			if got, want := c.Fill(op.line, pref, hit), m.fill(op.line, pref, hit); got != want {
				t.Fatalf("%d ways × %d sets, step %d: Fill(%#x, %v, %v) = %+v, model %+v",
					ways, sets, step, op.line, pref, hit, got, want)
			}
		case 5:
			if got, want := c.Contains(op.line), m.lines[op.line] != nil; got != want {
				t.Fatalf("%d ways × %d sets, step %d: Contains(%#x) = %v, model %v", ways, sets, step, op.line, got, want)
			}
		case 6:
			c.Mark(op.line)
			m.mark(op.line)
		}
	}
}

// TestCacheMatchesModel churns every shape from 1 to 16 ways and 1 to 64
// sets against the model with seeded random ops over a few sets, each
// with more lines than ways.
func TestCacheMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= 16; ways++ {
		for setBits := 0; setBits <= 6; setBits++ {
			sets := uint64(1) << setBits
			ops := make([]cacheOp, 2000)
			for i := range ops {
				tag, set := uint64(rng.Intn(2*ways+2)), uint64(rng.Intn(4))&(sets-1)
				ops[i] = cacheOp{kind: rng.Intn(7), line: cacheLine(setBits, tag, set, rng.Intn(4) == 0)}
			}
			checkCacheChurn(t, ways, sets, ops)
		}
	}
}

// FuzzCache drives the cache against the model. The first byte picks the
// ways (1 to 16) and the set count (1 to 64); each later pair of bytes is
// an op on a line: the first byte's low three bits pick the op, its next
// two bits the set, and its top bit a wide tag, and the second byte picks
// the tag.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x00, 1, 0, 2, 0, 0, 0, 5, 1})
	f.Add([]byte{0x13, 1, 0, 1, 4, 1, 8, 6, 0, 0, 0, 2, 12, 3, 16, 0, 0})
	f.Add([]byte{0x67, 2, 1, 9, 5, 17, 9, 133, 3, 1, 2, 6, 1, 0, 1, 129, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := int(data[0]&15) + 1
		setBits := int(data[0]>>4) % 7
		sets := uint64(1) << setBits
		ops := make([]cacheOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			kind := int(a&7) % 7
			set := uint64(a>>3&3) & (sets - 1)
			tag := uint64(b) % uint64(2*ways+2)
			ops = append(ops, cacheOp{kind: kind, line: cacheLine(setBits, tag, set, a&0x80 != 0)})
		}
		checkCacheChurn(t, ways, sets, ops)
	})
}

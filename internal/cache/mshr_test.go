package cache

import (
	"math/rand"
	"testing"
)

// mshrModel is the reference the open-addressed MSHR table is checked
// against: a Go map from line to entry plus the bookkeeping the file keeps.
type mshrModel struct {
	capacity  int
	entries   map[uint64]*MSHREntry
	allocs    uint64
	stalls    uint64
	highWater int
}

// mshrOp is one step of a churn: kind 0 allocates a demand, 1 a prefetch,
// 2 looks up and 3 releases line.
type mshrOp struct {
	kind int
	line uint64
}

// collidingLines returns n distinct lines for m's table: half share one
// home slot, half share the last slot, so probe runs collide, wrap around
// the table's end and run into each other.
func collidingLines(m *MSHR, n int) []uint64 {
	last := len(m.slots) - 1
	var a, b []uint64
	for line := uint64(1); len(a) < (n+1)/2 || len(b) < n/2; line++ {
		switch h := m.home(line); {
		case h == last && len(b) < n/2:
			b = append(b, line)
		case h == last/2 && len(a) < (n+1)/2:
			a = append(a, line)
		}
	}
	return append(a, b...)
}

// checkMSHRChurn applies ops to a fresh file of the given capacity and to
// the map model, and fails on the first disagreement.
func checkMSHRChurn(t *testing.T, capacity int, ops []mshrOp) {
	t.Helper()
	m := NewMSHR(capacity)
	model := mshrModel{capacity: max(capacity, 0), entries: map[uint64]*MSHREntry{}}
	owned := map[*MSHREntry]bool{}
	for _, e := range m.free {
		owned[e] = true
	}
	for step, op := range ops {
		switch op.kind {
		case 0, 1:
			pref := op.kind == 1
			got := m.Allocate(op.line, pref)
			_, present := model.entries[op.line]
			full := len(model.entries) >= model.capacity
			switch {
			case full:
				model.stalls++
				if got != nil {
					t.Fatalf("step %d: Allocate(%d) into a full file returned an entry", step, op.line)
				}
			case present:
				if got != nil {
					t.Fatalf("step %d: Allocate(%d) of an outstanding line returned an entry", step, op.line)
				}
			default:
				if got == nil || got.LineAddr != op.line || got.Prefetch != pref || len(got.Waiters) != 0 {
					t.Fatalf("step %d: Allocate(%d, %v) = %+v", step, op.line, pref, got)
				}
				if !owned[got] {
					t.Fatalf("step %d: Allocate(%d) returned an entry the file was not built with", step, op.line)
				}
				for l, e := range model.entries {
					if e == got {
						t.Fatalf("step %d: Allocate(%d) reused the entry of outstanding line %d", step, op.line, l)
					}
				}
				got.Waiters = append(got.Waiters, Waiter{Seq: uint64(step)})
				model.entries[op.line] = got
				model.allocs++
				model.highWater = max(model.highWater, len(model.entries))
			}
		case 2:
			if got, want := m.Lookup(op.line), model.entries[op.line]; got != want {
				t.Fatalf("step %d: Lookup(%d) = %p, want %p", step, op.line, got, want)
			}
		case 3:
			e := model.entries[op.line]
			m.Release(op.line)
			delete(model.entries, op.line)
			if e != nil && len(e.Waiters) != 0 {
				t.Fatalf("step %d: Release(%d) kept %d waiters", step, op.line, len(e.Waiters))
			}
		}
		if m.Len() != len(model.entries) || m.Full() != (len(model.entries) >= model.capacity) {
			t.Fatalf("step %d: Len %d Full %v, want %d %v", step, m.Len(), m.Full(),
				len(model.entries), len(model.entries) >= model.capacity)
		}
		if m.Allocs != model.allocs || m.FullStalls != model.stalls || m.HighWater != model.highWater {
			t.Fatalf("step %d: Allocs %d FullStalls %d HighWater %d, want %d %d %d", step,
				m.Allocs, m.FullStalls, m.HighWater, model.allocs, model.stalls, model.highWater)
		}
	}
	// Every outstanding line is still found, and nothing else occupies a slot.
	for l, e := range model.entries {
		if m.Lookup(l) != e {
			t.Fatalf("after churn: line %d lost", l)
		}
	}
	occupied := 0
	for _, s := range m.slots {
		if s.e != nil {
			occupied++
		}
	}
	if occupied != len(model.entries) || len(m.free)+occupied != model.capacity {
		t.Fatalf("after churn: %d slots occupied and %d entries free, want %d outstanding of %d",
			occupied, len(m.free), len(model.entries), model.capacity)
	}
}

// randomMSHROps draws n ops over lines in blocks of 200 that alternate
// between mostly allocating and mostly releasing, so the file fills,
// stalls, drains and refills.
func randomMSHROps(rng *rand.Rand, lines []uint64, n int) []mshrOp {
	filling := []int{0, 1, 0, 1, 2, 3}
	draining := []int{3, 3, 3, 2, 0, 1}
	ops := make([]mshrOp, n)
	for i := range ops {
		kinds := filling
		if i/200%2 == 1 {
			kinds = draining
		}
		ops[i] = mshrOp{kind: kinds[rng.Intn(len(kinds))], line: lines[rng.Intn(len(lines))]}
	}
	return ops
}

// TestMSHRTableMatchesMap churns the table against a map model with seeded
// random Allocate, Lookup and Release calls, at capacities 0, 1 and 32,
// over spread-out lines and over lines forced onto two home slots.
func TestMSHRTableMatchesMap(t *testing.T) {
	for _, capacity := range []int{0, 1, 32} {
		shape := NewMSHR(capacity)
		spread := make([]uint64, 3*capacity+4)
		for i := range spread {
			spread[i] = uint64(i)*4099 + 7
		}
		for _, set := range []struct {
			name  string
			lines []uint64
		}{
			{"spread", spread},
			{"colliding", collidingLines(shape, 2*capacity+4)},
		} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				checkMSHRChurn(t, capacity, randomMSHROps(rng, set.lines, 4000))
			}
			t.Logf("capacity %d, %s lines: 4 seeds of 4000 ops agree", capacity, set.name)
		}
	}
}

// FuzzMSHR drives the table against the map model. The first byte picks
// the capacity; each later byte is an op (low two bits) on one of a
// handful of lines that collide on two home slots (the rest).
func FuzzMSHR(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 2, 3})
	f.Add([]byte{1, 0, 4, 3, 1, 6, 7, 2})
	f.Add([]byte{32, 0, 4, 8, 12, 16, 20, 3, 7, 11, 2, 6, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0] % 40)
		lines := collidingLines(NewMSHR(capacity), 16)
		ops := make([]mshrOp, len(data)-1)
		for i, b := range data[1:] {
			ops[i] = mshrOp{kind: int(b & 3), line: lines[int(b>>2)%len(lines)]}
		}
		checkMSHRChurn(t, capacity, ops)
	})
}

package prefetch

import (
	"slices"
	"testing"
)

func observeAll(p Prefetcher, addr uint64, miss bool) []uint64 {
	return p.Observe(AccessEvent{LineAddr: addr, Miss: miss}, 1<<20)
}

func TestStreamTrainingAscending(t *testing.T) {
	s := NewStream(StreamConfig{})
	if got := observeAll(s, 1000, true); len(got) != 0 {
		t.Fatalf("allocation access should not prefetch: %v", got)
	}
	if got := observeAll(s, 1001, true); len(got) != 0 {
		t.Fatalf("first confirmation should not prefetch yet: %v", got)
	}
	got := observeAll(s, 1002, true)
	if len(got) != s.cfg.Degree {
		t.Fatalf("promotion should emit a full batch, got %v", got)
	}
	for i, a := range got {
		if a != 1003+uint64(i) {
			t.Fatalf("ramp should start right after demand: %v", got)
		}
	}
}

func TestStreamDescending(t *testing.T) {
	s := NewStream(StreamConfig{})
	observeAll(s, 5000, true)
	observeAll(s, 4999, true)
	got := observeAll(s, 4998, true)
	if len(got) == 0 || got[0] != 4997 {
		t.Fatalf("descending stream should prefetch downward: %v", got)
	}
}

func TestStreamPerfectCoverage(t *testing.T) {
	s := NewStream(StreamConfig{})
	issued := map[uint64]bool{}
	misses := 0
	for a := uint64(1000); a < 5000; a++ {
		miss := !issued[a]
		if miss {
			misses++
		}
		for _, c := range observeAll(s, a, miss) {
			issued[c] = true
		}
	}
	if misses > 10 {
		t.Fatalf("stream prefetcher loses coverage on a perfect stream: %d misses", misses)
	}
}

func TestStreamDistanceCap(t *testing.T) {
	s := NewStream(StreamConfig{Distance: 16})
	observeAll(s, 100, true)
	observeAll(s, 101, true)
	var issued []uint64
	// Hammer the same in-stream access: the prefetch pointer must not run
	// more than Distance ahead of the last demand.
	for i := 0; i < 50; i++ {
		issued = append(issued, observeAll(s, 102, false)...)
	}
	for _, a := range issued {
		if a > 102+16+1 {
			t.Fatalf("prefetch %d exceeds distance cap from demand 102", a)
		}
	}
}

func TestStreamBudgetBackpressure(t *testing.T) {
	s := NewStream(StreamConfig{})
	observeAll(s, 10, true)
	observeAll(s, 11, true) // one confirm
	// Copy: the next Observe reuses the returned buffer.
	got := slices.Clone(s.Observe(AccessEvent{LineAddr: 12, Miss: true}, 2))
	if len(got) != 2 {
		t.Fatalf("budget 2 should emit 2, got %v", got)
	}
	// The pointer must not have skipped anything: the next emission
	// continues where the budget cut off.
	got2 := s.Observe(AccessEvent{LineAddr: 13, Miss: false}, 4)
	if len(got2) == 0 || got2[0] != got[len(got)-1]+1 {
		t.Fatalf("backpressure skipped lines: first=%v then=%v", got, got2)
	}
	if got3 := s.Observe(AccessEvent{LineAddr: 14, Miss: false}, 0); len(got3) != 0 {
		t.Fatalf("zero budget must emit nothing, got %v", got3)
	}
}

func TestStreamOverrunRestartsAhead(t *testing.T) {
	s := NewStream(StreamConfig{})
	observeAll(s, 10, true)
	observeAll(s, 11, true)
	s.Observe(AccessEvent{LineAddr: 12, Miss: true}, 0) // throttled: nothing issued
	// Demand overruns the prefetch pointer.
	got := observeAll(s, 20, true)
	if len(got) == 0 || got[0] != 21 {
		t.Fatalf("overrun should restart just ahead of demand: %v", got)
	}
}

func TestStreamLRUReplacement(t *testing.T) {
	s := NewStream(StreamConfig{Streams: 2})
	observeAll(s, 1000, true)
	observeAll(s, 2000, true)
	observeAll(s, 3000, true) // evicts LRU (1000)
	// Train the 3000 stream: it must have an entry.
	observeAll(s, 3001, true)
	got := observeAll(s, 3002, true)
	if len(got) == 0 {
		t.Fatalf("newest stream should have trained after replacement")
	}
}

func TestStreamSetAggressiveness(t *testing.T) {
	s := NewStream(StreamConfig{})
	s.SetAggressiveness(2, 8)
	if s.cfg.Degree != 2 || s.cfg.Distance != 8 {
		t.Fatalf("throttle not applied: %+v", s.cfg)
	}
	observeAll(s, 10, true)
	observeAll(s, 11, true)
	if got := observeAll(s, 12, true); len(got) != 2 {
		t.Fatalf("degree 2 should emit 2: %v", got)
	}
}

func TestStreamHitsDoNotAllocate(t *testing.T) {
	s := NewStream(StreamConfig{Streams: 1})
	observeAll(s, 100, false) // a hit far from anything must not allocate
	if s.entries[0].state != streamInvalid {
		t.Fatal("cache hit allocated a stream entry")
	}
}

package dram

import (
	"sort"
	"testing"
)

// TestIssueBusSerialization is the data-bus contention regression: with
// requests in flight on many banks at once, no two bursts may overlap on
// the shared data bus, and the accounted bus occupancy must equal
// completed requests times the burst length exactly.
func TestIssueBusSerialization(t *testing.T) {
	cfg := DefaultConfig()
	ch := NewChannel(cfg)
	burst := cfg.Timing.Burst

	type window struct{ start, end uint64 }
	var bursts []window
	completed := uint64(0)
	now := uint64(0)
	// Waves of concurrent accesses: every ready bank issues in the same
	// cycle, mixing rows so hits, closed rows and conflicts all occur.
	for round := uint64(0); round < 32; round++ {
		for b := 0; b < cfg.Banks; b++ {
			if !ch.BankReady(b, now) {
				continue
			}
			row := (round / 2) % 3 // repeat rows for hits, rotate for conflicts
			fin, _ := ch.Issue(b, row, now, false)
			if fin < now+burst {
				t.Fatalf("finish %d before burst could fit after cycle %d", fin, now)
			}
			bursts = append(bursts, window{fin - burst, fin})
			completed++
		}
		now += 30 // advance partway through the accesses so banks overlap
	}

	if completed < uint64(2*cfg.Banks) {
		t.Fatalf("test issued only %d requests; want real bank overlap", completed)
	}
	sort.Slice(bursts, func(i, j int) bool { return bursts[i].start < bursts[j].start })
	for i := 1; i < len(bursts); i++ {
		if bursts[i].start < bursts[i-1].end {
			t.Fatalf("burst %d [%d,%d) overlaps burst %d [%d,%d) on the data bus",
				i, bursts[i].start, bursts[i].end, i-1, bursts[i-1].start, bursts[i-1].end)
		}
	}
	if want := completed * burst; ch.BusBusyCycles != want {
		t.Fatalf("BusBusyCycles = %d, want completed(%d) x Burst(%d) = %d",
			ch.BusBusyCycles, completed, burst, want)
	}
	if hits, closed, conflicts := ch.Counts(); hits+closed+conflicts != completed {
		t.Fatalf("channel completed %d, test counted %d", hits+closed+conflicts, completed)
	}
}

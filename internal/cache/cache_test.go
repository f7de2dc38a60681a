package cache

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{Bytes: 4096, Ways: 4, LineBytes: 64, HitCycles: 2} // 16 sets? 4096/64/4 = 16
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Bytes: 0, Ways: 4, LineBytes: 64},
		{Bytes: 4096, Ways: 0, LineBytes: 64},
		{Bytes: 4096, Ways: 4, LineBytes: 0},
		{Bytes: 4000, Ways: 4, LineBytes: 64},
		{Bytes: 4096 * 3, Ways: 4, LineBytes: 64}, // 48 sets: not a power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHitMiss(t *testing.T) {
	c := New(smallConfig())
	if c.Access(42).Hit {
		t.Fatal("empty cache hit")
	}
	c.Fill(42, false, false)
	info := c.Access(42)
	if !info.Hit || info.WasPrefetch {
		t.Fatalf("expected demand hit, got %+v", info)
	}
	if !c.Contains(42) || c.Contains(43) {
		t.Fatal("Contains wrong")
	}
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := New(smallConfig())
	c.Fill(7, true, true)
	info := c.Access(7)
	if !info.Hit || !info.WasPrefetch || !info.FillRowHit {
		t.Fatalf("first touch should report prefetch+rowhit fill: %+v", info)
	}
	info = c.Access(7)
	if !info.Hit || info.WasPrefetch {
		t.Fatalf("P bit must clear after first use: %+v", info)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(smallConfig()) // 16 sets, 4 ways
	// Four lines in set 0: line addresses that are multiples of 16.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*16, false, false)
	}
	c.Access(0) // make line 0 most recent
	ev := c.Fill(4*16, false, false)
	if !ev.Valid || ev.LineAddr != 1*16 {
		t.Fatalf("should evict LRU line 16, got %+v", ev)
	}
	if !c.Contains(0) || c.Contains(16) {
		t.Fatal("wrong victim evicted")
	}
}

func TestEvictionReportsUnusedPrefetch(t *testing.T) {
	c := New(smallConfig())
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*16, true, false)
	}
	c.Access(0) // uses line 0's prefetch
	ev := c.Fill(4*16, false, false)
	if !ev.Valid || !ev.WasPrefetch {
		t.Fatalf("evicting an untouched prefetch should report it: %+v", ev)
	}
}

func TestRefillKeepsDemandClassification(t *testing.T) {
	c := New(smallConfig())
	c.Fill(9, false, false)
	c.Fill(9, true, false) // racing prefetch refill must not set the P bit
	if info := c.Access(9); info.WasPrefetch {
		t.Fatal("refill flipped a demand line to prefetch")
	}
}

// TestFillThenAccessProperty: anything filled is a hit until evicted by
// enough same-set fills.
func TestFillThenAccessProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(smallConfig())
		for _, l := range lines {
			c.Fill(uint64(l), false, false)
			if !c.Access(uint64(l)).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityProperty: a working set no larger than the associativity per
// set never misses after warmup.
func TestCapacityProperty(t *testing.T) {
	c := New(smallConfig())
	ws := []uint64{0, 16, 32, 48} // all in set 0, exactly 4 ways
	for _, l := range ws {
		c.Fill(l, false, false)
	}
	for round := 0; round < 10; round++ {
		for _, l := range ws {
			if !c.Access(l).Hit {
				t.Fatalf("round %d: line %d evicted from a fitting working set", round, l)
			}
		}
	}
}

func TestMSHR(t *testing.T) {
	m := NewMSHR(2)
	if m.Full() || m.Len() != 0 || m.Capacity() != 2 {
		t.Fatal("fresh MSHR state wrong")
	}
	e := m.Allocate(100, true)
	if e == nil || !e.Prefetch {
		t.Fatal("allocation failed")
	}
	if m.Allocate(100, false) != nil {
		t.Fatal("duplicate allocation should fail")
	}
	if m.Lookup(100) != e {
		t.Fatal("lookup broken")
	}
	m.Allocate(200, false)
	if !m.Full() {
		t.Fatal("should be full")
	}
	if m.Allocate(300, false) != nil {
		t.Fatal("over-capacity allocation")
	}
	if m.FullStalls != 1 {
		t.Fatalf("FullStalls=%d", m.FullStalls)
	}
	m.Release(100)
	if m.Full() || m.Lookup(100) != nil {
		t.Fatal("release broken")
	}
	e2 := m.Allocate(300, false)
	e2.Waiters = append(e2.Waiters, Waiter{Core: 1, Seq: 9})
	if len(m.Lookup(300).Waiters) != 1 {
		t.Fatal("waiters lost")
	}
	// A released entry is reused with its waiters cleared, not leaked
	// into the next miss.
	m.Release(300)
	e3 := m.Allocate(400, true)
	if e3 != e2 || len(e3.Waiters) != 0 || e3.LineAddr != 400 || !e3.Prefetch {
		t.Fatalf("reused entry = %+v (same object %v), want a fresh prefetch entry for 400", *e3, e3 == e2)
	}
}

// TestMarkLifetime pins the owner mark the simulator tags memory-side
// fills with: the demand hit that consumes a line's P bit consumes the
// mark too, a hit on a line without its P bit leaves the mark, and the
// eviction of a still-marked line reports it.
func TestMarkLifetime(t *testing.T) {
	c := New(smallConfig()) // 16 sets of 4 ways: lines 0, 16, 32, ... share set 0
	c.Fill(0, true, false)
	c.Mark(0)
	if info := c.Access(0); !info.WasPrefetch || !info.Marked {
		t.Fatalf("first demand hit on a marked prefetch = %+v", info)
	}
	if c.Access(0).Marked {
		t.Fatal("the P-bit hit did not consume the mark")
	}

	c.Fill(16, false, false)
	c.Mark(16)
	if !c.Access(16).Marked || !c.Access(16).Marked {
		t.Fatal("a hit without a P bit consumed the mark")
	}
	c.Mark(99) // absent line: no-op

	c.Fill(32, false, false)
	c.Fill(48, false, false)
	if ev := c.Fill(64, false, false); ev.LineAddr != 0 || ev.Marked {
		t.Fatalf("evicting the consumed line = %+v", ev)
	}
	if ev := c.Fill(80, false, false); ev.LineAddr != 16 || !ev.Marked {
		t.Fatalf("evicting the marked line = %+v", ev)
	}
}

func TestMSHRFullStallSplit(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(100, false)
	if m.Allocate(200, false) != nil || m.Allocate(300, true) != nil {
		t.Fatal("over-capacity allocation")
	}
	m.NoteFullStall(true) // owners that check Full() first book stalls directly
	if m.FullStalls != 3 || m.FullStallsDemand != 1 || m.FullStallsPref != 2 {
		t.Fatalf("stall split = %d total / %d demand / %d pref, want 3/1/2",
			m.FullStalls, m.FullStallsDemand, m.FullStallsPref)
	}
}

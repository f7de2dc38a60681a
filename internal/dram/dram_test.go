package dram

import (
	"testing"
	"testing/quick"
)

func TestTimingLatencyOrdering(t *testing.T) {
	tm := DDR3()
	hit, closed, conflict := tm.Latency(RowHit), tm.Latency(RowClosed), tm.Latency(RowConflict)
	if !(hit < closed && closed < conflict) {
		t.Fatalf("latency ordering broken: hit=%d closed=%d conflict=%d", hit, closed, conflict)
	}
	// The paper's ~1:3 row-hit to row-conflict asymmetry.
	if ratio := float64(conflict) / float64(hit); ratio < 2 || ratio > 4 {
		t.Fatalf("hit:conflict ratio %.2f outside the expected 2-4x band", ratio)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.Banks = 6 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.RowBytes = 100 },
	}
	for i, mod := range cases {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMapGeometry(t *testing.T) {
	c := DefaultConfig()
	lpr := c.LinesPerRow()
	if lpr != 64 {
		t.Fatalf("4KB rows of 64B lines should hold 64 lines, got %d", lpr)
	}
	// Consecutive lines walk one row in one bank.
	a0, a1 := c.Map(0), c.Map(1)
	if a0.Bank != a1.Bank || a0.Row != a1.Row || a1.Col != a0.Col+1 {
		t.Fatalf("consecutive lines should share a row: %+v %+v", a0, a1)
	}
	// Crossing the row boundary moves to the next bank (row interleaving).
	b := c.Map(lpr)
	if b.Bank == a0.Bank || b.Row != a0.Row {
		t.Fatalf("row crossing should change bank, keep row index: %+v -> %+v", a0, b)
	}
}

func TestMapInjective(t *testing.T) {
	c := DefaultConfig()
	c.Channels = 2
	f := func(line uint32) bool {
		a := c.Map(uint64(line))
		// Reconstruct the line address from the coordinates.
		rest := a.Row*uint64(c.Banks) + uint64(a.Bank)
		rest = rest*uint64(c.Channels) + uint64(a.Channel)
		return rest*c.LinesPerRow()+a.Col == uint64(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapPermutationStaysInRange(t *testing.T) {
	c := DefaultConfig()
	c.Permutation = true
	f := func(line uint64) bool {
		a := c.Map(line)
		return a.Bank >= 0 && a.Bank < c.Banks && a.Channel == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankStateMachine(t *testing.T) {
	ch := NewChannel(DefaultConfig())
	if got := ch.Banks[0].State(5); got != RowClosed {
		t.Fatalf("fresh bank should be closed, got %v", got)
	}
	fin, st := ch.Issue(0, 5, 0, false)
	if st != RowClosed {
		t.Fatalf("first access should be row-closed, got %v", st)
	}
	if !ch.BankReady(0, fin) || ch.BankReady(0, fin-1) {
		t.Fatalf("bank busy window wrong: finish=%d", fin)
	}
	_, st = ch.Issue(0, 5, fin, false)
	if st != RowHit {
		t.Fatalf("same row should hit, got %v", st)
	}
	_, st = ch.Issue(0, 9, fin*3, false)
	if st != RowConflict {
		t.Fatalf("different row should conflict, got %v", st)
	}
}

func TestClosedRowPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Page = ClosedPage
	ch := NewChannel(cfg)
	fin, _ := ch.Issue(0, 5, 0, false) // no more row work: precharge for free
	if ch.Banks[0].OpenRow != -1 {
		t.Fatalf("closed-row policy should close the row")
	}
	_, st := ch.Issue(0, 7, fin, false)
	if st != RowClosed {
		t.Fatalf("next different-row access should be row-closed (not conflict), got %v", st)
	}
	// With more row work pending the row stays open.
	fin2, _ := ch.Issue(0, 7, fin*4, true)
	if ch.Banks[0].OpenRow != 7 {
		t.Fatalf("keepOpen should keep the row open")
	}
	_, st = ch.Issue(0, 7, fin2, false)
	if st != RowHit {
		t.Fatalf("pending row work should hit, got %v", st)
	}
}

func TestBusSerializesBanks(t *testing.T) {
	ch := NewChannel(DefaultConfig())
	// Two different banks issued the same cycle: accesses overlap except
	// the data burst.
	f0, _ := ch.Issue(0, 1, 0, false)
	f1, _ := ch.Issue(1, 1, 0, false)
	if f1 < f0+ch.cfg.Timing.Burst {
		t.Fatalf("bursts must serialize on the bus: f0=%d f1=%d", f0, f1)
	}
	if f1 >= f0+ch.cfg.Timing.Latency(RowClosed) {
		t.Fatalf("banks should overlap their activates: f0=%d f1=%d", f0, f1)
	}
}

func TestRowHitRateStat(t *testing.T) {
	ch := NewChannel(DefaultConfig())
	fin, _ := ch.Issue(0, 1, 0, false)
	fin, _ = ch.Issue(0, 1, fin, false)
	_, _ = ch.Issue(0, 1, fin, false)
	hits, closed, conflicts := ch.Counts()
	total := hits + closed + conflicts
	if got := float64(hits) / float64(total); got < 0.6 || got > 0.7 {
		t.Fatalf("2 hits of 3 accesses: RBH=%v", got)
	}
	if total != 3 {
		t.Fatalf("completed=%d", total)
	}
}

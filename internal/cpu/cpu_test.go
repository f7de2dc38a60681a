package cpu

import (
	"testing"

	"padc/internal/trace"
)

// fakeMem scripts the memory hierarchy for core tests.
type fakeMem struct {
	hitLatency uint64
	pending    map[uint64]bool // lines that go Pending until Complete
	retryLeft  map[uint64]int  // lines that Retry n times first
	loads      []uint64        // line of every first-try load, in issue order
	firstTries int
	retries    int
}

func newFakeMem() *fakeMem {
	return &fakeMem{hitLatency: 2, pending: map[uint64]bool{}, retryLeft: map[uint64]int{}}
}

func (m *fakeMem) Load(_ int, _ uint64, line, _ uint64, _ bool, now uint64, firstTry bool) LoadResult {
	if firstTry {
		m.firstTries++
		m.loads = append(m.loads, line)
	} else {
		m.retries++
	}
	if n := m.retryLeft[line]; n > 0 {
		m.retryLeft[line] = n - 1
		return LoadResult{Retry: true}
	}
	if m.pending[line] {
		return LoadResult{Pending: true}
	}
	return LoadResult{ReadyAt: now + m.hitLatency}
}

// computeGen returns a pure-compute instruction stream.
type pattern struct {
	ops []trace.MemOp
}

func (p pattern) Name() string { return "test" }
func (p pattern) MemOp(m uint64) trace.MemOp {
	if len(p.ops) == 0 {
		return trace.MemOp{Line: m}
	}
	return p.ops[m%uint64(len(p.ops))]
}

func run(c *Core, cycles uint64) {
	for now := uint64(1); now <= cycles; now++ {
		c.Tick(now)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, c := range []Config{{Width: 4}, {ROB: 256}, {ROB: -1, Width: 4}} {
		if c.Validate() == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestRetireWidth(t *testing.T) {
	// Pure compute: IPC approaches the width.
	g := trace.Gen{Pattern: pattern{}, MemEvery: 1 << 60}
	c := New(0, Config{ROB: 64, Width: 4}, g, newFakeMem())
	run(c, 1000)
	if ipc := float64(c.Retired) / 1000; ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("compute IPC should approach 4, got %.2f", ipc)
	}
}

func TestLoadsIssueAtDispatch(t *testing.T) {
	m := newFakeMem()
	g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
	c := New(0, Config{ROB: 64, Width: 4}, g, m)
	run(c, 100)
	if m.firstTries == 0 {
		t.Fatal("no loads issued")
	}
	if c.Loads == 0 {
		t.Fatal("no loads retired")
	}
}

func TestMissBlocksRetirementThenCompletes(t *testing.T) {
	m := newFakeMem()
	m.pending[0] = true // the first load (line 0) never returns by itself
	g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
	c := New(0, Config{ROB: 16, Width: 4}, g, m)
	run(c, 200)
	retiredBefore := c.Retired
	if retiredBefore > 4 {
		t.Fatalf("retirement should block behind the pending load, retired=%d", retiredBefore)
	}
	if c.StallCycles == 0 {
		t.Fatal("stall cycles not counted")
	}
	// Deliver the fill for the blocking load (seq 0 is instruction 0).
	c.Complete(0, 200)
	run2 := func() {
		for now := uint64(201); now <= 260; now++ {
			// Later loads to other lines hit; only line 0 was pending once.
			m.pending = map[uint64]bool{}
			c.Tick(now)
		}
	}
	run2()
	if c.Retired <= retiredBefore {
		t.Fatal("completion did not unblock retirement")
	}
}

func TestROBCapacityBoundsOutstanding(t *testing.T) {
	m := newFakeMem()
	g := trace.Gen{Pattern: pattern{}, MemEvery: 1}
	// Every instruction is a pending load.
	for i := uint64(0); i < 1000; i++ {
		m.pending[i] = true
	}
	c := New(0, Config{ROB: 8, Width: 4}, g, m)
	run(c, 100)
	if m.firstTries > 8 {
		t.Fatalf("ROB of 8 should bound outstanding loads, issued %d", m.firstTries)
	}
}

func TestDependentLoadWaitsForProducer(t *testing.T) {
	m := newFakeMem()
	m.pending[100] = true
	ops := []trace.MemOp{{Line: 100}, {Line: 200, Dep: true}}
	g := trace.Gen{Pattern: pattern{ops: ops}, MemEvery: 2}
	c := New(0, Config{ROB: 16, Width: 2}, g, m)
	run(c, 50)
	// Only the producer should have issued; the dependent is deferred.
	for _, l := range m.loads {
		if l == 200 {
			t.Fatal("dependent load issued before its producer completed")
		}
	}
	c.Complete(0, 50) // seq 0 = instruction 0 = the producer
	for now := uint64(51); now <= 80; now++ {
		c.Tick(now)
	}
	found := false
	for _, l := range m.loads {
		if l == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("dependent load never issued after producer fill")
	}
}

func TestRetryBackoff(t *testing.T) {
	m := newFakeMem()
	m.retryLeft[0] = 3
	g := trace.Gen{Pattern: pattern{}, MemEvery: 1 << 60}
	// Make instruction 0 a load by MemEvery=1<<60 trick: index 0 % anything == 0.
	g = trace.Gen{Pattern: pattern{}, MemEvery: 1000}
	c := New(0, Config{ROB: 8, Width: 1}, g, m)
	run(c, 100)
	if m.retries == 0 {
		t.Fatal("no retries recorded")
	}
	if m.firstTries+m.retries > 20 {
		t.Fatalf("retry storm: %d attempts", m.firstTries+m.retries)
	}
}

func TestRunaheadGeneratesFutureLoadsAndReplays(t *testing.T) {
	m := newFakeMem()
	// All loads pend; fills delivered manually.
	g := trace.Gen{Pattern: pattern{}, MemEvery: 8}
	for i := uint64(0); i < 1000; i++ {
		m.pending[i] = true
	}
	c := New(0, Config{ROB: 16, Width: 4, Runahead: true}, g, m)
	run(c, 500)
	if c.RAEntries == 0 {
		t.Fatal("runahead never entered")
	}
	// Runahead keeps fetching past the blocked head: more distinct loads
	// than a 16-entry window could hold (16/8 = 2 loads per window).
	if m.firstTries <= 2 {
		t.Fatalf("runahead should prefetch ahead, issued %d loads", m.firstTries)
	}
	if !c.InRunahead() {
		t.Fatal("core should still be in runahead")
	}
	// Deliver the blocking fill: the core must exit and replay.
	c.Complete(c.raBlockSeq, 501)
	if c.InRunahead() {
		t.Fatal("runahead exit failed")
	}

	// Now let everything hit and confirm retired count reaches a target
	// without double counting.
	m.pending = map[uint64]bool{}
	for now := uint64(502); now <= 2000; now++ {
		c.Tick(now)
	}
	want := uint64(0)
	_ = want
	if c.Retired == 0 {
		t.Fatal("no forward progress after runahead")
	}
	if c.RAInsts == 0 {
		t.Fatal("runahead instructions not accounted")
	}
}

func TestDeterministicProgress(t *testing.T) {
	mk := func() *Core {
		m := newFakeMem()
		g := trace.Gen{Pattern: pattern{}, MemEvery: 3}
		return New(0, Config{ROB: 32, Width: 4}, g, m)
	}
	a, b := mk(), mk()
	run(a, 3000)
	run(b, 3000)
	if a.Retired != b.Retired || a.StallCycles != b.StallCycles || a.Loads != b.Loads {
		t.Fatalf("nondeterminism: %d/%d %d/%d", a.Retired, b.Retired, a.StallCycles, b.StallCycles)
	}
}

func TestAccountingOffByDefault(t *testing.T) {
	c := New(0, Config{ROB: 8, Width: 2}, trace.Gen{Pattern: pattern{}, MemEvery: 4}, newFakeMem())
	run(c, 100)
	if c.Account() != nil || c.AccountSnapshot() != nil {
		t.Fatal("accounting should be off unless EnableAccounting is called")
	}
}

func TestAccountingSumsToTickedCycles(t *testing.T) {
	m := newFakeMem()
	m.pending[0] = true // mix in a long-latency demand stall
	c := New(0, Config{ROB: 16, Width: 4}, trace.Gen{Pattern: pattern{}, MemEvery: 4}, m)
	c.EnableAccounting()
	const cycles = 137
	run(c, cycles)
	if got := c.Account().Total(); got != cycles {
		t.Fatalf("attribution sums to %d, want every ticked cycle (%d)", got, cycles)
	}
	snap := c.AccountSnapshot()
	if len(snap) != int(NumCycleClasses) {
		t.Fatalf("snapshot has %d classes, want %d", len(snap), NumCycleClasses)
	}
	var sum uint64
	for _, v := range snap {
		sum += v
	}
	if sum != cycles {
		t.Fatalf("snapshot sums to %d, want %d", sum, cycles)
	}
}

func TestAccountingPureComputeRetires(t *testing.T) {
	c := New(0, Config{ROB: 64, Width: 4}, trace.Gen{Pattern: pattern{}, MemEvery: 1 << 60}, newFakeMem())
	c.EnableAccounting()
	run(c, 1000)
	a := c.Account()
	if a[CycleRetire] < 900 {
		t.Fatalf("pure compute should retire nearly every cycle, got %v", *a)
	}
	if a[CycleStallDemand] != 0 || a[CycleStallResource] != 0 {
		t.Fatalf("pure compute charged memory stalls: %v", *a)
	}
}

func TestAccountingDemandMissStall(t *testing.T) {
	m := newFakeMem()
	for i := uint64(0); i < 1000; i++ {
		m.pending[i] = true // every load is an unfilled long-latency miss
	}
	c := New(0, Config{ROB: 16, Width: 4}, trace.Gen{Pattern: pattern{}, MemEvery: 2}, m)
	c.EnableAccounting()
	run(c, 500)
	a := c.Account()
	if a[CycleStallDemand] < 400 {
		t.Fatalf("blocked demand miss should dominate, got %v", *a)
	}
}

func TestAccountingResourceStall(t *testing.T) {
	m := newFakeMem()
	m.retryLeft[0] = 1 << 30 // the first load is rejected (MSHR full) forever
	c := New(0, Config{ROB: 8, Width: 1}, trace.Gen{Pattern: pattern{}, MemEvery: 1}, m)
	c.EnableAccounting()
	run(c, 300)
	a := c.Account()
	if a[CycleStallResource] < 200 {
		t.Fatalf("resource-full rejection should dominate, got %v", *a)
	}
}

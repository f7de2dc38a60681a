package cpu

import (
	"testing"

	"padc/internal/trace"
)

// stallCore builds a core wedged behind a never-completing head load:
// MemEvery 4 with line 0 pending fills the ROB and blocks retirement,
// the canonical skippable state.
func stallCore(rob int) (*Core, *fakeMem) {
	m := newFakeMem()
	m.pending[0] = true
	g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
	c := New(0, Config{ROB: rob, Width: 4}, g, m)
	run(c, 200)
	return c, m
}

func TestNextEventFetchingCore(t *testing.T) {
	g := trace.Gen{Pattern: pattern{}, MemEvery: 1 << 60}
	c := New(0, Config{ROB: 64, Width: 4}, g, newFakeMem())
	// A non-full ROB fetches every cycle: the next cycle is always an event.
	if e := c.NextEvent(0); e != 1 {
		t.Fatalf("fetching core NextEvent = %d, want 1", e)
	}
	c.Tick(1)
	if e := c.NextEvent(1); e != 2 {
		t.Fatalf("fetching core NextEvent = %d, want 2", e)
	}
}

func TestNextEventBlockedHead(t *testing.T) {
	c, _ := stallCore(16)
	// Full ROB, head load issued and pending with no completion scheduled:
	// only an external Complete can wake the core.
	if e := c.NextEvent(200); e != NeverEvent {
		t.Fatalf("wedged core NextEvent = %d, want NeverEvent", e)
	}
	// Schedule the completion: the core's next event is exactly that cycle.
	c.Complete(0, 300)
	e := c.NextEvent(200)
	if e != 300 {
		t.Fatalf("NextEvent after Complete(0, 300) = %d, want 300", e)
	}
	// At the wake-up cycle itself the core can retire: next cycle is live.
	if e := c.NextEvent(300); e != 301 {
		t.Fatalf("NextEvent at the ready cycle = %d, want 301", e)
	}
}

// TestSkipMatchesTicking is the unit-level lockstep: two identical wedged
// cores, one ticked cycle by cycle through the inert window, one skipped
// across it arithmetically. Every observable counter must agree.
func TestSkipMatchesTicking(t *testing.T) {
	ticked, tm := stallCore(16)
	skipped, sm := stallCore(16)

	const n = 500
	for now := uint64(201); now <= 200+n; now++ {
		ticked.Tick(now)
	}
	skipped.Skip(n)

	if ticked.Retired != skipped.Retired || ticked.Loads != skipped.Loads {
		t.Fatalf("progress diverged: ticked retired=%d loads=%d, skipped retired=%d loads=%d",
			ticked.Retired, ticked.Loads, skipped.Retired, skipped.Loads)
	}
	if ticked.StallCycles != skipped.StallCycles {
		t.Fatalf("stall accounting diverged: ticked=%d skipped=%d",
			ticked.StallCycles, skipped.StallCycles)
	}
	if tm.firstTries != sm.firstTries || tm.retries != sm.retries {
		t.Fatalf("memory traffic diverged: ticked %d/%d, skipped %d/%d",
			tm.firstTries, tm.retries, sm.firstTries, sm.retries)
	}
}

// TestSkipMatchesTickingWithAccounting repeats the lockstep with the
// cycle-accounting profiler on: the skipped core's class buckets must
// land exactly where per-cycle classification would put them.
func TestSkipMatchesTickingWithAccounting(t *testing.T) {
	build := func() *Core {
		m := newFakeMem()
		m.pending[0] = true
		g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
		c := New(0, Config{ROB: 16, Width: 4}, g, m)
		c.EnableAccounting()
		run(c, 200)
		return c
	}
	ticked, skipped := build(), build()

	const n = 300
	for now := uint64(201); now <= 200+n; now++ {
		ticked.Tick(now)
	}
	skipped.Skip(n)

	ta, sa := ticked.AccountSnapshot(), skipped.AccountSnapshot()
	for k, v := range ta {
		if sa[k] != v {
			t.Fatalf("class %v diverged: ticked=%d skipped=%d", CycleClass(k), v, sa[k])
		}
	}
	var total uint64
	for _, v := range sa {
		total += v
	}
	if total != 200+n {
		t.Fatalf("accounting buckets sum to %d, want %d", total, 200+n)
	}
}

func TestNextEventDeferredRetry(t *testing.T) {
	m := newFakeMem()
	m.retryLeft[0] = 1 << 30 // line 0 rejects forever: the load stays deferred
	g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
	c := New(0, Config{ROB: 16, Width: 4}, g, m)
	run(c, 200)
	// The deferred load retries on a fixed backoff: the core's next event
	// is a real cycle, never NeverEvent, and never more than the backoff
	// window away.
	e := c.NextEvent(200)
	if e == NeverEvent {
		t.Fatal("core with a deferred retry reports no next event")
	}
	if e <= 200 || e > 200+16 {
		t.Fatalf("retry wake-up %d outside (200, 216]", e)
	}
	retries := m.retries
	for now := uint64(201); now < e; now++ {
		c.Tick(now)
	}
	if m.retries != retries {
		t.Fatalf("claimed-inert window issued %d retries", m.retries-retries)
	}
	c.Tick(e)
	if m.retries == retries {
		t.Fatalf("no retry at the claimed wake-up cycle %d", e)
	}
}

// stampMem is fakeMem with a Stamper: rejections carry the current stamp.
type stampMem struct {
	*fakeMem
	stamp uint64
}

func (m *stampMem) Load(id int, seq, line, pc uint64, ra bool, now uint64, first bool) LoadResult {
	res := m.fakeMem.Load(id, seq, line, pc, ra, now, first)
	if res.Retry {
		res.Stamp = m.stamp
	}
	return res
}

func (m *stampMem) Stamp(int) uint64 { return m.stamp }

// TestParkedRetrySleepsUntilStampMoves pins the stamp contract on the
// core side: a parked load neither retries nor counts as a next event
// while the stamp holds, and once the stamp moves it retries on the
// lattice of its first rejection, exactly where a core that kept retrying
// every backoff would have.
func TestParkedRetrySleepsUntilStampMoves(t *testing.T) {
	m := &stampMem{fakeMem: newFakeMem(), stamp: 7}
	m.retryLeft[0] = 1 << 30 // the head load rejects until the test clears it
	g := trace.Gen{Pattern: pattern{}, MemEvery: 4}
	c := New(0, Config{ROB: 16, Width: 4}, g, m)
	run(c, 200)
	if c.Parks == 0 {
		t.Fatal("a stamped rejection did not park its load")
	}
	if e := c.NextEvent(200); e != NeverEvent {
		t.Fatalf("full ROB behind a parked head load wakes at %d", e)
	}
	retries := m.retries
	for now := uint64(201); now <= 300; now++ {
		c.Tick(now)
	}
	if m.retries != retries {
		t.Fatalf("parked load retried %d times under an unmoved stamp", m.retries-retries)
	}

	// Instruction 0 was first rejected at cycle 1: its lattice is 1+8k.
	m.stamp++
	m.retryLeft[0] = 0
	e := c.NextEvent(300)
	if e != 305 {
		t.Fatalf("unparked load wakes at %d, want lattice cycle 305", e)
	}
	c.Tick(303) // an off-lattice tick fast-forwards without retrying
	if m.retries != retries {
		t.Fatal("unparked load retried off its lattice")
	}
	c.Tick(305)
	if m.retries != retries+1 {
		t.Fatalf("unparked load did not retry at its lattice cycle (%d retries)", m.retries-retries)
	}
}

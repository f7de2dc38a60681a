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

func (m *stampMem) Stamp(int) uint64               { return m.stamp }
func (m *stampMem) Holds(int, uint64, uint64) bool { return false }

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

// countMem rejects every load with a fixed stamp, and counts the Load,
// Stamp and Holds calls the core makes.
type countMem struct {
	stamp                uint64
	loads, stamps, holds int
}

func (m *countMem) Load(int, uint64, uint64, uint64, bool, uint64, bool) LoadResult {
	m.loads++
	return LoadResult{Retry: true, Stamp: m.stamp}
}

func (m *countMem) Stamp(int) uint64 {
	m.stamps++
	return m.stamp
}

func (m *countMem) Holds(int, uint64, uint64) bool {
	m.holds++
	return false
}

// TestParkedLoadsCostNothing pins the cost of parked retries: with a full
// window of loads parked under an unmoved stamp, a Tick or a NextEvent
// makes no Load or Holds call and a constant number of Stamp calls,
// however many loads are deferred.
func TestParkedLoadsCostNothing(t *testing.T) {
	for _, rob := range []int{128, 256, 512} {
		m := &countMem{stamp: 7}
		c := New(0, Config{ROB: rob, Width: 4}, trace.Gen{Pattern: pattern{}, MemEvery: 1}, m)
		now := uint64(1)
		for ; now <= uint64(rob); now++ {
			c.Tick(now)
		}
		if _, n, deferred := c.Window(); n != rob || deferred != rob {
			t.Fatalf("ROB %d: setup left %d entries, %d deferred; want a full window of rejected loads", rob, n, deferred)
		}
		for end := now + 4*retryBackoff; now < end; now++ {
			m.loads, m.stamps = 0, 0
			c.Tick(now)
			if m.loads != 0 || m.holds != 0 || m.stamps > 1 {
				t.Fatalf("ROB %d: Tick(%d) made %d Load, %d Holds and %d Stamp calls over parked loads, want 0, 0 and at most 1",
					rob, now, m.loads, m.holds, m.stamps)
			}
			m.stamps = 0
			if e := c.NextEvent(now); e != NeverEvent {
				t.Fatalf("ROB %d: NextEvent(%d) = %d behind parked loads, want NeverEvent", rob, now, e)
			}
			if m.loads != 0 || m.holds != 0 || m.stamps > 1 {
				t.Fatalf("ROB %d: NextEvent(%d) made %d Load, %d Holds and %d Stamp calls over parked loads, want 0, 0 and at most 1",
					rob, now, m.loads, m.holds, m.stamps)
			}
		}
	}
}

// fileMem is an MSHR file of capacity entries whose fills never return.
// A load of an outstanding line merges; a load on a full file is rejected
// with the epoch and its line's generation; any other load allocates an
// entry, which moves the epoch and the line's generation. release frees
// an entry and moves the epoch. It counts Load calls.
type fileMem struct {
	capacity int
	lines    map[uint64]bool
	gens     map[uint64]uint64
	epoch    uint64
	loads    int
}

func newFileMem(capacity int) *fileMem {
	return &fileMem{capacity: capacity, lines: map[uint64]bool{}, gens: map[uint64]uint64{}, epoch: 1}
}

func (m *fileMem) Load(_ int, _, line, _ uint64, _ bool, _ uint64, _ bool) LoadResult {
	m.loads++
	switch {
	case m.lines[line]:
	case len(m.lines) == m.capacity:
		return LoadResult{Retry: true, Stamp: m.epoch, Gen: m.gens[line]}
	default:
		m.lines[line] = true
		m.gens[line]++
		m.epoch++
	}
	return LoadResult{Pending: true}
}

func (m *fileMem) Stamp(int) uint64 { return m.epoch }

func (m *fileMem) Holds(_ int, line, gen uint64) bool {
	return len(m.lines) == m.capacity && m.gens[line] == gen
}

func (m *fileMem) release(line uint64) {
	delete(m.lines, line)
	m.epoch++
}

// TestReleaseWakesOneLoad pins the wake-up after a release: with loads on
// distinct lines parked on a full MSHR file, one release lets exactly one
// of them call Load, which fills the file again, and the others stay
// parked through the stamp moves of both the release and that allocation.
func TestReleaseWakesOneLoad(t *testing.T) {
	const entries, rob = 8, 64
	m := newFileMem(entries)
	c := New(0, Config{ROB: rob, Width: 4}, trace.Gen{Pattern: pattern{}, MemEvery: 1}, m)
	now := uint64(1)
	for ; now <= 2*retryBackoff+rob/4; now++ {
		c.Tick(now)
	}
	if _, n, deferred := c.Window(); n != rob || deferred != rob-entries || c.Parks == 0 {
		t.Fatalf("setup left %d entries, %d deferred, %d parks; want a full window, %d loads parked",
			n, deferred, c.Parks, rob-entries)
	}
	if e := c.NextEvent(now - 1); e != NeverEvent {
		t.Fatalf("loads parked on a full file wake the core at %d", e)
	}
	m.loads = 0
	m.release(3)
	for end := now + 4*retryBackoff; now < end; now++ {
		c.Tick(now)
		c.NextEvent(now)
	}
	if m.loads != 1 || len(m.lines) != entries {
		t.Fatalf("one release led to %d Load calls and %d of %d entries taken, want 1 call refilling the file",
			m.loads, len(m.lines), entries)
	}
	if _, _, deferred := c.Window(); deferred != rob-entries-1 {
		t.Fatalf("%d loads deferred after the refill, want %d", deferred, rob-entries-1)
	}
	if e := c.NextEvent(now - 1); e != NeverEvent {
		t.Fatalf("loads parked on the refilled file wake the core at %d", e)
	}
}

// chainMem rejects every load's first try with the current stamp and
// hits every retry, allocating nothing.
type chainMem struct {
	stamp    uint64
	rejected int
}

func (m *chainMem) Load(_ int, _, _, _ uint64, _ bool, now uint64, firstTry bool) LoadResult {
	if firstTry {
		m.rejected++
		return LoadResult{Retry: true, Stamp: m.stamp}
	}
	return LoadResult{ReadyAt: now + 1}
}

func (m *chainMem) Stamp(int) uint64               { return m.stamp }
func (m *chainMem) Holds(int, uint64, uint64) bool { return false }

// TestDeferredFilingAllocatesNothing runs a pointer chase in which every
// load waits on its producer, is then rejected and filed under its retry
// phase, and later issues: the steady state must not allocate.
func TestDeferredFilingAllocatesNothing(t *testing.T) {
	m := &chainMem{stamp: 1}
	g := trace.Gen{Pattern: pattern{ops: []trace.MemOp{{Line: 1, Dep: true}, {Line: 2}, {Line: 3, Dep: true}}}, MemEvery: 2}
	c := New(0, Config{ROB: 64, Width: 4}, g, m)
	now := uint64(0)
	tick := func() {
		for end := now + 200; now < end; {
			now++
			c.Tick(now)
			m.stamp++ // every retry finds the hierarchy changed
		}
	}
	tick()
	before, retired := m.rejected, c.Retired
	if allocs := testing.AllocsPerRun(5, tick); allocs != 0 {
		t.Fatalf("steady state allocated %.1f times per 200 cycles", allocs)
	}
	if m.rejected == before || c.Retired == retired {
		t.Fatalf("no progress: %d rejections, %d retired", m.rejected-before, c.Retired-retired)
	}
}

// scriptMem answers by line: line 1 hits after 8 cycles, line 2 allocates
// a fill (Pending) and moves the stamp, and every other line is rejected
// with the current stamp. It logs each Load call's cycle and seq.
type scriptMem struct {
	stamp uint64
	calls [][2]uint64
}

func (m *scriptMem) Load(_ int, seq, line, _ uint64, _ bool, now uint64, _ bool) LoadResult {
	m.calls = append(m.calls, [2]uint64{now, seq})
	switch line {
	case 1:
		return LoadResult{ReadyAt: now + 8}
	case 2:
		m.stamp++
		return LoadResult{Pending: true}
	}
	return LoadResult{Retry: true, Stamp: m.stamp}
}

func (m *scriptMem) Stamp(int) uint64               { return m.stamp }
func (m *scriptMem) Holds(int, uint64, uint64) bool { return false }

// TestWaiterReopensParkedPhase covers a producer-waiter whose Load moves
// the stamp while the phase it shares a cycle with is parked: the phase's
// later loads are no longer parked and must retry in that same tick, in
// seq order after the waiter, as a scan of every deferred load retries
// them.
func TestWaiterReopensParkedPhase(t *testing.T) {
	// seq 0 hits (ready at 9), seq 1 depends on it, seqs 2 and up are
	// rejected: seqs 2 and 3 at cycle 1, on the phase of cycle 9.
	ops := []trace.MemOp{{Line: 1}, {Line: 2, Dep: true}}
	for l := uint64(3); l < 40; l++ {
		ops = append(ops, trace.MemOp{Line: l})
	}
	m := &scriptMem{stamp: 5}
	c := New(0, Config{ROB: 16, Width: 4}, trace.Gen{Pattern: pattern{ops: ops}, MemEvery: 1}, m)
	for now := uint64(1); now <= 9; now++ {
		c.Tick(now)
	}
	var at9 []uint64
	for _, call := range m.calls {
		if call[0] == 9 {
			at9 = append(at9, call[1])
		}
	}
	want := []uint64{1, 2, 3, 16}
	if len(at9) != len(want) {
		t.Fatalf("Load calls at cycle 9 for seqs %v, want %v", at9, want)
	}
	for i := range want {
		if at9[i] != want[i] {
			t.Fatalf("Load calls at cycle 9 for seqs %v, want %v", at9, want)
		}
	}
}

// TestDependentChainParksUnderProducer pins the cost of a pointer chase:
// with a full window of loads that each depend on the one before, behind
// one pending miss, only the load whose producer has issued is on the
// waiters list. The rest wait under their unissued producers, so a tick
// visits at most one waiter however long the chain.
func TestDependentChainParksUnderProducer(t *testing.T) {
	for _, rob := range []int{16, 256, 512} {
		m := newFakeMem()
		m.pending[1] = true
		g := trace.Gen{Pattern: pattern{ops: []trace.MemOp{{Line: 1, Dep: true}}}, MemEvery: 1}
		c := New(0, Config{ROB: rob, Width: 4}, g, m)
		for now := uint64(1); now <= uint64(rob); now++ {
			if n := c.waiting(); n > 1 {
				t.Fatalf("ROB %d: %d loads on the waiters list before Tick(%d), want at most 1", rob, n, now)
			}
			c.Tick(now)
		}
		if _, n, deferred := c.Window(); n != rob || deferred != rob-1 {
			t.Fatalf("ROB %d: setup left %d entries, %d deferred; want a full window behind one miss", rob, n, deferred)
		}
		if n := c.waiting(); n != 1 {
			t.Fatalf("ROB %d: %d loads on the waiters list behind one pending miss, want 1", rob, n)
		}
		if e := c.NextEvent(uint64(rob)); e != NeverEvent {
			t.Fatalf("ROB %d: NextEvent = %d behind a pending miss, want NeverEvent", rob, e)
		}
		// The miss delivers: the chain drains one load per hit latency,
		// and the list never grows past the load now waiting.
		c.Complete(0, uint64(rob)+1)
		m.pending[1] = false
		for now := uint64(rob) + 1; now <= uint64(4*rob); now++ {
			c.Tick(now)
			if n := c.waiting(); n > 1 {
				t.Fatalf("ROB %d: %d loads on the waiters list after Tick(%d), want at most 1", rob, n, now)
			}
		}
		if c.Loads == 0 {
			t.Fatalf("ROB %d: the chain never drained", rob)
		}
	}
}

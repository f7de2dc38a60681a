// Package cpu models the processing cores of the simulated CMP. The model
// is deliberately simple — the paper's results are memory-system results —
// but keeps the properties that matter to a DRAM-scheduling study:
//
//   - a finite reorder buffer (256 entries) retired in order, up to 4 per
//     cycle, so long DRAM latencies stall the window;
//   - loads issue to the memory hierarchy at dispatch, so independent
//     misses overlap (memory-level parallelism) while dependent loads
//     (pointer chasing) serialize;
//   - optional runahead execution (§6.14): when an L2-miss load blocks the
//     ROB head, the core checkpoints, pseudo-retires, and keeps fetching to
//     generate accurate future memory requests, replaying the real path
//     when the blocking fill returns.
//
// The core fetches through a trace.Cursor, so a compute instruction costs
// one compare and the workload's Pattern is asked for each line once.
//
// A core can sleep. NextEvent names the next cycle at which Tick could do
// more than repeat the current cycle's stall accounting, and Skip applies
// that accounting for the cycles in between, so a run loop may tick each
// core only when it is due. A load rejected because its MSHR file is full
// may also carry a stamp and a line generation (LoadResult.Stamp, Gen).
// While the memory's Stamper reports the same stamp, or its Holds check
// says the file is still full and nothing touched the load's line, the
// core knows the retry would fail again: it neither calls Load for it nor
// counts it as a reason to wake.
//
// Loads that cannot issue at dispatch are deferred. A rejected load
// retries only every retryBackoff cycles from its first rejection, so the
// core files it under that retry phase. A load waits on a producer only
// for the previous memory instruction, so each load has at most one
// dependent. A load whose producer has not issued yet is filed under the
// producer's ROB slot and costs nothing until the producer issues; one
// whose producer has issued but not delivered goes on a waiters list. A
// tick visits only the current phase and the waiters, and passes over a
// phase whose loads are all parked on the current stamp without visiting
// them. A load that Holds keeps parked after the stamp moved takes the new
// stamp, so its phase is passed over again from then on.
package cpu

import (
	"fmt"

	"padc/internal/trace"
)

// CycleClass attributes one core cycle to the resource that bounded it.
// The profiler classifies every cycle into exactly one class, so over any
// window the class counts sum to the cycle count — the cycle-accounting
// identity the attribution tables rely on.
type CycleClass uint8

const (
	// CycleRetire: at least one instruction retired this cycle.
	CycleRetire CycleClass = iota
	// CycleStallDemand: retirement was blocked by a load waiting on an
	// outstanding long-latency (DRAM) miss — the ROB fills behind it.
	CycleStallDemand
	// CycleStallResource: the head load could not even enter the memory
	// system (MSHR file or request buffer full) and is backing off.
	CycleStallResource
	// CycleCompute: the window had work but nothing retired — dependence
	// waits, short-latency cache hits in flight, fill/fetch cycles.
	CycleCompute
	// CycleIdle: the instruction window was empty.
	CycleIdle
	// NumCycleClasses bounds CycleClass values.
	NumCycleClasses
)

// String implements fmt.Stringer.
func (c CycleClass) String() string {
	switch c {
	case CycleRetire:
		return "retire"
	case CycleStallDemand:
		return "demand-miss"
	case CycleStallResource:
		return "mshr-full"
	case CycleCompute:
		return "compute"
	case CycleIdle:
		return "idle"
	default:
		return "unknown"
	}
}

// CycleClassNames returns the class labels in CycleClass order, for table
// headers and metric names.
func CycleClassNames() []string {
	out := make([]string, NumCycleClasses)
	for c := CycleClass(0); c < NumCycleClasses; c++ {
		out[c] = c.String()
	}
	return out
}

// CycleAccount is a per-class cycle tally.
type CycleAccount [NumCycleClasses]uint64

// Config shapes a core, taken as written; DefaultConfig is the paper's
// baseline (Table 3).
type Config struct {
	ROB      int
	Width    int
	Runahead bool
}

// DefaultConfig returns the paper's per-core baseline: 256-entry ROB,
// 4-wide retire.
func DefaultConfig() Config { return Config{ROB: 256, Width: 4} }

// Validate reports a core that cannot hold or retire an instruction.
func (c Config) Validate() error {
	if c.ROB < 1 || c.Width < 1 {
		return fmt.Errorf("cpu: ROB (%d) and Width (%d) must be at least 1", c.ROB, c.Width)
	}
	return nil
}

// LoadResult is the memory hierarchy's immediate answer to a load.
type LoadResult struct {
	ReadyAt uint64 // valid when !Pending
	Pending bool   // completion will arrive via Core.Complete
	Retry   bool   // resource full; re-issue after retryBackoff cycles
	// Stamp, when nonzero on a Retry, is a promise: the same load keeps
	// answering Retry, with no side effect, for as long as the memory's
	// Stamper reports this stamp for the core. The core then leaves the
	// load parked instead of retrying it. Zero promises nothing.
	Stamp uint64
	// Gen, with a nonzero Stamp, is a second promise: the load keeps
	// answering Retry for as long as the Stamper's Holds accepts Gen for
	// its line, whatever the stamp.
	Gen uint64
}

// Memory is the interface the core uses to access its cache hierarchy.
// seq identifies the load so the hierarchy can complete it later.
// firstTry distinguishes a load's first issue from retries after a
// resource-full rejection, so the hierarchy counts statistics and trains
// prefetchers exactly once per load.
type Memory interface {
	Load(coreID int, seq, line, pc uint64, runahead bool, now uint64, firstTry bool) LoadResult
}

// Stamper is the optional interface a Memory implements when it returns
// LoadResult stamps. A Memory without it never has its stamps honored.
//
// Stamp reports the core's current stamp, the core-wide epoch: it changes
// whenever anything a parked retry depends on may have changed, before
// the core next asks. Holds is the per-load check behind LoadResult.Gen:
// it reports whether a load of line, rejected with generation gen, would
// still be rejected now, with no side effect. The core asks it only once
// the stamp has moved, and a load it holds is parked at the new stamp.
type Stamper interface {
	Stamp(coreID int) uint64
	Holds(coreID int, line, gen uint64) bool
}

// retryBackoff is the cycle gap between a rejected load's retries. Every
// retry of a load lands on its lattice r0+retryBackoff*k, where r0 is the
// cycle of its first rejection, so its phase r0 % retryBackoff is fixed.
const retryBackoff = 8

// robEntry keeps its flags together after the words, so an entry packs
// into 64 bytes.
type robEntry struct {
	seq     uint64
	line    uint64
	pc      uint64
	depOn   uint64 // seq of the producing memory instruction when dep
	readyAt uint64
	stamp   uint64 // the rejection's LoadResult.Stamp (0: not parked)
	gen     uint64 // the rejection's LoadResult.Gen

	isLoad   bool
	dep      bool // depends on the previous memory instruction
	ready    bool
	issued   bool
	tried    bool // reached the memory hierarchy at least once
	rejected bool // last issue attempt was a resource-full rejection
	l2miss   bool // became Pending (true long-latency miss)
	runahead bool // fetched during runahead mode
}

// deferList is a seq-ordered list of deferred loads threaded through the
// ROB slots. On a phase list, mark is nonzero when every load on the list
// holds that rejection stamp: while the memory reports it, the whole phase
// is parked and a tick passes it over without visiting its loads.
type deferList struct {
	head, tail int32 // ROB slots; noSlot when the list is empty
	mark       uint64
}

// noSlot ends a deferred list.
const noSlot = -1

// Core is one simulated processor.
type Core struct {
	ID  int
	cfg Config
	cur trace.Cursor // at the next instruction to fetch
	mem Memory
	// stamper is mem's Stamper, or nil when it has none.
	stamper Stamper

	buf   []robEntry
	head  int
	count int

	prevMemSeq  uint64 // seq of the most recent memory instruction fetched
	havePrevMem bool

	// Deferred loads are dispatched loads that could not issue yet. They
	// stay in their ROB slots and are threaded by next into seq-ordered
	// lists: one per retry phase (now % retryBackoff) for loads the memory
	// rejected, which retry only on their phase's cycles, and waiters for
	// loads whose producer has issued but not delivered, which are checked
	// every cycle. A load whose producer has not issued is on no list:
	// dependent[producer slot] holds it, and the producer's issue moves it
	// onto waiters. A slot's dependent is read only when the load in it
	// settles, so it is reset only when a load is dispatched into the
	// slot. deferred counts every deferred load.
	next      []int32
	dependent []int32
	phases    [retryBackoff]deferList
	waiters   deferList
	deferred  int

	// Runahead state.
	inRunahead bool
	raBlockSeq uint64 // seq of the load that triggered runahead
	raResume   uint64 // instruction index to replay from on exit

	// acct, when non-nil, attributes every cycle to one CycleClass; nil
	// (the default) keeps the uninstrumented Tick free of profiling work
	// beyond one pointer compare.
	acct *CycleAccount

	// Stats.
	Retired     uint64
	Loads       uint64
	StallCycles uint64 // cycles retirement was blocked by an unready load
	RAEntries   uint64 // times runahead mode was entered
	RAInsts     uint64 // instructions pseudo-executed in runahead mode
	Parks       uint64 // rejections that parked their load on a stamp
}

// EnableAccounting turns on per-cycle attribution. Call before the first
// Tick so the account covers the whole run.
func (c *Core) EnableAccounting() { c.acct = new(CycleAccount) }

// Account returns the cycle attribution (nil unless EnableAccounting was
// called).
func (c *Core) Account() *CycleAccount { return c.acct }

// AccountSnapshot returns a copy of the attribution as a slice in
// CycleClass order, or nil when accounting is off. The copy freezes a
// core's buckets at its instruction target while the core keeps running
// for contention.
func (c *Core) AccountSnapshot() []uint64 {
	if c.acct == nil {
		return nil
	}
	out := make([]uint64, NumCycleClasses)
	copy(out, c.acct[:])
	return out
}

// classifyCycle attributes the cycle that just failed to retire anything:
// the ROB-head entry names the bounding resource.
func (c *Core) classifyCycle() CycleClass {
	if c.count == 0 {
		return CycleIdle
	}
	e := c.at(0)
	if e.isLoad {
		switch {
		case e.issued && !e.ready && e.l2miss:
			return CycleStallDemand
		case !e.issued && e.rejected:
			return CycleStallResource
		}
	}
	return CycleCompute
}

// New builds a core executing gen against mem; cfg must pass Validate.
func New(id int, cfg Config, gen trace.Gen, mem Memory) *Core {
	links := make([]int32, 2*cfg.ROB)
	c := &Core{ID: id, cfg: cfg, cur: gen.Cursor(0), mem: mem, buf: make([]robEntry, cfg.ROB),
		next: links[:cfg.ROB:cfg.ROB], dependent: links[cfg.ROB:]}
	c.stamper, _ = mem.(Stamper)
	c.clearDeferred()
	return c
}

// slot returns the ROB slot pos places behind the head; pos < len(buf).
func (c *Core) slot(pos int) int32 {
	i := c.head + pos
	if i >= len(c.buf) {
		i -= len(c.buf)
	}
	return int32(i)
}

// at returns the entry pos slots behind the head; pos < len(buf).
func (c *Core) at(pos int) *robEntry { return &c.buf[c.slot(pos)] }

// clearDeferred empties every deferred list.
func (c *Core) clearDeferred() {
	empty := deferList{head: noSlot, tail: noSlot}
	for i := range c.phases {
		c.phases[i] = empty
	}
	c.waiters = empty
	c.deferred = 0
}

// file adds the load in slot s to l in seq order. Dispatch and a rejected
// producer-waiter are the only callers, and dispatch always appends.
func (c *Core) file(l *deferList, s int32) {
	e := &c.buf[s]
	switch {
	case l.head == noSlot:
		l.head, l.tail, l.mark = s, s, e.stamp
		c.next[s] = noSlot
		return
	case l.mark != e.stamp:
		l.mark = 0
	}
	if c.buf[l.tail].seq < e.seq {
		c.next[l.tail], c.next[s], l.tail = s, noSlot, s
		return
	}
	prev, p := int32(noSlot), l.head
	for c.buf[p].seq < e.seq {
		prev, p = p, c.next[p]
	}
	c.link(l, prev, s, p)
}

// link puts slot s between prev (noSlot: the head) and p (noSlot: the
// tail) on l.
func (c *Core) link(l *deferList, prev, s, p int32) {
	c.next[s] = p
	if prev == noSlot {
		l.head = s
	} else {
		c.next[prev] = s
	}
	if p == noSlot {
		l.tail = s
	}
}

// unlink removes slot s, which follows prev (noSlot: s is the head), from l.
func (c *Core) unlink(l *deferList, prev, s int32) {
	n := c.next[s]
	if prev == noSlot {
		l.head = n
	} else {
		c.next[prev] = n
	}
	if l.tail == s {
		l.tail = prev
	}
}

// popHead retires the head slot from the ring.
func (c *Core) popHead() {
	c.head++
	if c.head == len(c.buf) {
		c.head = 0
	}
	c.count--
}

// parked reports whether the rejected entry e is certain to fail a retry
// now: it holds the stamp the memory reports, or it held an older one and
// the memory's Holds check still holds it, in which case it takes the
// current stamp.
func (c *Core) parked(e *robEntry) bool {
	if e.stamp == 0 {
		return false
	}
	return c.holds(e, c.stamper.Stamp(c.ID))
}

// holds reports whether the stamped entry e is parked under stamp, the
// memory's current one, restamping it when Holds keeps it parked.
func (c *Core) holds(e *robEntry, stamp uint64) bool {
	if e.stamp != stamp {
		if !c.stamper.Holds(c.ID, e.line, e.gen) {
			return false
		}
		e.stamp = stamp
	}
	return true
}

// unparked reports whether phase list l holds a load that is not parked
// on stamp, the memory's current one. A marked phase answers without
// visiting its loads; a phase whose loads all turn out parked is marked.
func (c *Core) unparked(l *deferList, stamp uint64) bool {
	if l.mark != 0 && l.mark == stamp {
		return false
	}
	// Restamping breaks an old mark's claim that every load holds it.
	l.mark = 0
	for s := l.head; s != noSlot; s = c.next[s] {
		if d := &c.buf[s]; d.stamp == 0 || !c.holds(d, stamp) {
			return true
		}
	}
	l.mark = stamp
	return false
}

// slotBySeq returns the ROB slot of the in-window entry with the given
// seq, or noSlot. Seqs are contiguous within the window, so this is index
// arithmetic.
func (c *Core) slotBySeq(seq uint64) int32 {
	if c.count == 0 {
		return noSlot
	}
	first := c.buf[c.head].seq
	if seq < first || seq >= first+uint64(c.count) {
		return noSlot
	}
	return c.slot(int(seq - first))
}

// entryBySeq returns the in-window entry with the given seq, or nil.
func (c *Core) entryBySeq(seq uint64) *robEntry {
	if s := c.slotBySeq(seq); s != noSlot {
		return &c.buf[s]
	}
	return nil
}

// Complete delivers a memory fill for the load with the given seq. Stale
// completions for flushed runahead work are ignored.
func (c *Core) Complete(seq, now uint64) {
	if c.inRunahead && seq == c.raBlockSeq {
		c.exitRunahead()
		return
	}
	if e := c.entryBySeq(seq); e != nil && e.issued && !e.ready {
		e.ready = true
		e.readyAt = now
	}
}

func (c *Core) enterRunahead(blockSeq uint64) {
	c.inRunahead = true
	c.raBlockSeq = blockSeq
	c.raResume = blockSeq // seq doubles as instruction index
	c.RAEntries++
	// Pseudo-retire the blocking load; fetch continues past it. Everything
	// still in the window will be replayed on exit, so it must count as
	// runahead work, not retired instructions.
	c.popHead()
	for i := 0; i < c.count; i++ {
		c.at(i).runahead = true
	}
}

func (c *Core) exitRunahead() {
	c.inRunahead = false
	c.count = 0
	c.cur.Seek(c.raResume)
	c.havePrevMem = false
	c.clearDeferred()
}

// Tick advances the core one cycle: retire up to Width ready instructions
// from the head, then fetch/dispatch up to Width new ones.
func (c *Core) Tick(now uint64) {
	// Retire.
	retired := false
	for w := 0; w < c.cfg.Width && c.count > 0; w++ {
		e := c.at(0)
		if c.inRunahead && e.issued && e.l2miss && !e.ready {
			// Runahead pseudo-retires miss loads with an INV result.
			e.ready = true
			e.readyAt = now
		}
		if !e.issued || !e.ready || e.readyAt > now {
			if w == 0 && e.isLoad && e.issued {
				c.StallCycles++
				if c.cfg.Runahead && !c.inRunahead && e.l2miss && !e.ready {
					c.enterRunahead(e.seq)
				}
			}
			break
		}
		if e.runahead {
			c.RAInsts++
		} else {
			c.Retired++
			if e.isLoad {
				c.Loads++
			}
		}
		retired = true
		c.popHead()
	}

	// Attribute the cycle before fetch refills the window: the head that
	// blocked retirement (or the empty window) names the cycle's class.
	if c.acct != nil {
		if retired {
			c.acct[CycleRetire]++
		} else {
			c.acct[c.classifyCycle()]++
		}
	}

	// Issue any dispatched-but-unissued loads whose dependence or resource
	// stall has cleared.
	if c.deferred > 0 {
		c.retryDeferred(now)
	}

	// Fetch/dispatch.
	for w := 0; w < c.cfg.Width && c.count < len(c.buf); w++ {
		s := c.slot(c.count)
		e := &c.buf[s]
		*e = robEntry{seq: c.cur.Index(), runahead: c.inRunahead}
		inst := c.cur.Next()
		c.count++
		if !inst.Mem {
			e.issued = true
			e.ready = true
			e.readyAt = now
			continue
		}
		e.isLoad = true
		e.line = inst.Line
		e.pc = inst.PC
		e.dep = inst.Dep && c.havePrevMem
		producer := int32(noSlot)
		if e.dep {
			e.depOn = c.prevMemSeq
			producer = c.slotBySeq(e.depOn)
		}
		c.prevMemSeq = e.seq
		c.havePrevMem = true
		c.dependent[s] = noSlot
		if producer != noSlot && !c.buf[producer].issued {
			// A producer that has not issued can neither deliver nor be
			// dropped as INV, so the load waits in its slot until it issues.
			c.dependent[producer] = s
			c.deferred++
			continue
		}
		if !c.tryIssue(e, now) {
			c.deferred++
			if e.rejected {
				c.file(&c.phases[now%retryBackoff], s)
			} else {
				c.file(&c.waiters, s)
			}
		}
	}
}

// retryDeferred gives every deferred load that can act at cycle now its
// turn, in seq order: the loads of the phase whose retry lattice lands on
// now, merged with the producer-waiters. A rejected load's phase is fixed
// for life, since it retries only on its lattice. A phase whose loads all
// hold the stamp the memory reports is parked as a whole and passed over
// without visiting them, unless a producer-waiter's Load moves the stamp
// partway through: the phase's loads after that waiter then take their
// turns, as they would have one by one.
//
// A load that settles here releases the load filed under it onto the
// waiters, as the next one to visit. It is the very next memory
// instruction, so no deferred load lies between the two in seq order, and
// it takes its turn in the same tick, where a visit while its producer
// was unissued would have done nothing.
func (c *Core) retryDeferred(now uint64) {
	ph := &c.phases[now%retryBackoff]
	held := ph.mark
	parked := ph.head != noSlot && held != 0 && c.stamper.Stamp(c.ID) == held
	// p is the next phase load to visit and pprev the last one kept
	// (p follows pprev on the list); mark folds the stamps of the loads
	// kept, for a phase that is walked rather than passed over.
	p, pprev := ph.head, int32(noSlot)
	if parked {
		p = noSlot
	}
	var mark uint64
	marked := false
	fold := func(stamp uint64) {
		if !marked {
			mark, marked = stamp, true
		} else if mark != stamp {
			mark = 0
		}
	}
	w, wprev := c.waiters.head, int32(noSlot)
	for {
		if w != noSlot && (p == noSlot || c.buf[w].seq < c.buf[p].seq) {
			e, nw := &c.buf[w], c.next[w]
			switch {
			case c.tryIssue(e, now):
				c.unlink(&c.waiters, wprev, w)
				c.deferred--
				if d := c.dependent[w]; d != noSlot {
					c.link(&c.waiters, wprev, d, nw)
					nw = d
				}
			case e.rejected:
				// Rejected at now: its phase is the one this tick serves.
				c.unlink(&c.waiters, wprev, w)
				if parked {
					c.file(ph, w)
				} else {
					c.link(ph, pprev, w, p)
					pprev = w
					fold(e.stamp)
				}
			default:
				wprev = w
			}
			if parked && e.tried && c.stamper.Stamp(c.ID) != held {
				// The waiter's Load moved the stamp: the phase's loads
				// after it are no longer parked.
				parked = false
				pprev, p = noSlot, ph.head
				for p != noSlot && c.buf[p].seq <= e.seq {
					fold(c.buf[p].stamp)
					pprev, p = p, c.next[p]
				}
			}
			w = nw
			continue
		}
		if p == noSlot {
			break
		}
		e, np := &c.buf[p], c.next[p]
		if c.tryIssue(e, now) {
			c.unlink(ph, pprev, p)
			c.deferred--
			if d := c.dependent[p]; d != noSlot {
				c.link(&c.waiters, wprev, d, w)
				w = d
			}
		} else {
			pprev = p
			fold(e.stamp)
		}
		p = np
	}
	if !parked {
		ph.mark = mark
	}
}

// tryIssue attempts to send the load to memory; it reports whether the
// load is settled (issued, or resolved without a memory access) as opposed
// to needing a retry.
func (c *Core) tryIssue(e *robEntry, now uint64) bool {
	if e.rejected && c.parked(e) {
		// A rejected load reaches here only on its lattice, from its
		// phase list, and does not retry while parked. It resolved its
		// dependence when it first reached memory.
		return false
	}
	if e.dep {
		p := c.entryBySeq(e.depOn)
		if p != nil && (!p.ready || p.readyAt > now) {
			if c.inRunahead && p.l2miss {
				// Runahead semantics: a load consuming an INV (unavailable)
				// value is dropped rather than issued.
				e.ready = true
				e.readyAt = now
				e.issued = true
				return true
			}
			return false // wait for the producer
		}
	}
	res := c.mem.Load(c.ID, e.seq, e.line, e.pc, e.runahead, now, !e.tried)
	e.tried = true
	if res.Retry {
		// Resources (MSHR or request buffer) are full; back off a few
		// cycles rather than hammering the hierarchy every cycle.
		e.rejected = true
		if c.stamper != nil {
			e.stamp, e.gen = res.Stamp, res.Gen
			if e.stamp != 0 {
				c.Parks++
			}
		}
		return false
	}
	e.rejected = false
	e.issued = true
	if res.Pending {
		e.l2miss = true
	} else {
		e.ready = true
		e.readyAt = res.ReadyAt
	}
	return true
}

// NeverEvent is the NextEvent value meaning "no internally-scheduled
// work": only an external completion can change the component's state, so
// the caller must bound any skip by the event that delivers it.
const NeverEvent = ^uint64(0)

// NextEvent reports the earliest cycle > now at which Tick could do
// anything beyond repeating the current cycle's stall accounting: retire
// the head, enter or leave runahead, issue a deferred load, or fetch.
// The contract Skip relies on: for every cycle u in (now, NextEvent(now)),
// Tick(u) would be a pure repeat of cycle now's blocked bookkeeping
// (StallCycles and the cycle-class attribution), with no other state
// change beyond retries the memory answers Retry without side effect.
// A parked load counts as no event: the caller must re-evaluate after any
// executed cycle, after any Complete delivery, and after any change of
// the core's Stamper stamp. NextEvent asks Holds about loads the stamp no
// longer parks and restamps those it keeps, so the memory must move the
// stamp after any later change that would let Holds release them.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.count < len(c.buf) {
		return now + 1 // fetch/dispatch proceeds every cycle
	}
	next := NeverEvent
	e := c.at(0)
	if e.issued {
		if e.ready {
			if e.readyAt <= now {
				return now + 1 // head retires on the next tick
			}
			next = e.readyAt
		} else if c.inRunahead || c.cfg.Runahead {
			// Next tick either pseudo-retires the blocking miss (in
			// runahead) or enters runahead mode — both are state changes.
			return now + 1
		}
		// Otherwise the head waits on a DRAM fill: an external Complete.
	}
	if c.deferred == 0 {
		return next
	}
	var stamp uint64
	if c.stamper != nil {
		stamp = c.stamper.Stamp(c.ID)
	}
	// A phase acts on its next lattice cycle unless all its loads are
	// parked; parked loads are woken by a stamp change.
	for t := now + 1; t <= now+retryBackoff && t < next; t++ {
		if c.unparked(&c.phases[t%retryBackoff], stamp) {
			next = t
		}
	}
	for s := c.waiters.head; s != noSlot; s = c.next[s] {
		d := &c.buf[s]
		if d.dep {
			p := c.entryBySeq(d.depOn)
			if p != nil && (!p.ready || p.readyAt > now) {
				if c.inRunahead && p.l2miss {
					return now + 1 // INV drop resolves the load next tick
				}
				if p.ready && p.readyAt < next {
					next = p.readyAt
				}
				continue // unready producer: woken by its completion
			}
		}
		return now + 1 // issueable: next tick's deferred pass acts
	}
	return next
}

// Skip accounts n cycles the caller proved inert via NextEvent: the
// stepped loop would only have repeated the head-blocked bookkeeping, so
// it is applied arithmetically. Skipped windows always have a full
// window (NextEvent returns now+1 otherwise), so the head entry — which
// classifyCycle and the stall condition read — is constant throughout.
func (c *Core) Skip(n uint64) {
	if c.count > 0 {
		if e := c.at(0); e.isLoad && e.issued {
			c.StallCycles += n
		}
	}
	if c.acct != nil {
		c.acct[c.classifyCycle()] += n
	}
}

// Window reports the next instruction index to fetch, the reorder-buffer
// occupancy and the number of deferred loads. With Retired and Loads they
// are the progress a sleeping core must leave untouched.
func (c *Core) Window() (nextIdx uint64, rob, deferred int) {
	return c.cur.Index(), c.count, c.deferred
}

// InRunahead reports whether the core is currently in runahead mode.
func (c *Core) InRunahead() bool { return c.inRunahead }

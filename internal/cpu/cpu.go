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
package cpu

import "padc/internal/trace"

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

// Total returns the cycles accounted (equals the profiled cycle count).
func (a *CycleAccount) Total() uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// Config shapes a core. Zero values fall back to the paper's baseline
// (Table 3): 256-entry ROB, 4-wide retire.
type Config struct {
	ROB      int
	Width    int
	Runahead bool
}

// DefaultConfig returns the paper's per-core baseline.
func DefaultConfig() Config { return Config{ROB: 256, Width: 4} }

// LoadResult is the memory hierarchy's immediate answer to a load.
type LoadResult struct {
	ReadyAt uint64 // valid when !Pending
	Pending bool   // completion will arrive via Core.Complete
	Retry   bool   // resource full; re-issue next cycle
}

// Memory is the interface the core uses to access its cache hierarchy.
// seq identifies the load so the hierarchy can complete it later.
// firstTry distinguishes a load's first issue from retries after a
// resource-full rejection, so the hierarchy counts statistics and trains
// prefetchers exactly once per load.
type Memory interface {
	Load(coreID int, seq, line, pc uint64, runahead bool, now uint64, firstTry bool) LoadResult
}

type robEntry struct {
	seq      uint64
	line     uint64
	pc       uint64
	isLoad   bool
	dep      bool   // depends on the previous memory instruction
	depOn    uint64 // seq of the producing memory instruction when dep
	ready    bool
	readyAt  uint64
	issued   bool
	tried    bool   // reached the memory hierarchy at least once
	rejected bool   // last issue attempt was a resource-full rejection
	retryAt  uint64 // back-off deadline after a resource-full rejection
	l2miss   bool   // became Pending (true long-latency miss)
	runahead bool   // fetched during runahead mode
}

// Core is one simulated processor.
type Core struct {
	ID  int
	cfg Config
	gen trace.Gen
	mem Memory

	buf     []robEntry
	head    int
	count   int
	nextIdx uint64 // next instruction index to fetch

	prevMemSeq  uint64 // seq of the most recent memory instruction fetched
	havePrevMem bool

	// deferred holds seqs of dispatched loads that could not issue yet
	// (dependence not resolved, or memory resources full); retried each
	// cycle. Keeping this list avoids scanning the whole window.
	deferred []uint64

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

// New builds a core executing gen against mem.
func New(id int, cfg Config, gen trace.Gen, mem Memory) *Core {
	def := DefaultConfig()
	if cfg.ROB == 0 {
		cfg.ROB = def.ROB
	}
	if cfg.Width == 0 {
		cfg.Width = def.Width
	}
	return &Core{ID: id, cfg: cfg, gen: gen, mem: mem, buf: make([]robEntry, cfg.ROB), deferred: make([]uint64, 0, cfg.ROB)}
}

func (c *Core) at(pos int) *robEntry { return &c.buf[(c.head+pos)%len(c.buf)] }

// entryBySeq returns the in-window entry with the given seq, or nil. Seqs
// are contiguous within the window, so this is index arithmetic.
func (c *Core) entryBySeq(seq uint64) *robEntry {
	if c.count == 0 {
		return nil
	}
	first := c.at(0).seq
	if seq < first || seq >= first+uint64(c.count) {
		return nil
	}
	return c.at(int(seq - first))
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
	c.head = (c.head + 1) % len(c.buf)
	c.count--
	for i := 0; i < c.count; i++ {
		c.at(i).runahead = true
	}
}

func (c *Core) exitRunahead() {
	c.inRunahead = false
	c.count = 0
	c.nextIdx = c.raResume
	c.havePrevMem = false
	c.deferred = c.deferred[:0]
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
		c.head = (c.head + 1) % len(c.buf)
		c.count--
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
	if len(c.deferred) > 0 {
		keep := c.deferred[:0]
		for _, seq := range c.deferred {
			e := c.entryBySeq(seq)
			if e == nil || e.issued {
				continue // flushed by runahead exit, or issued meanwhile
			}
			if !c.tryIssue(e, now) {
				keep = append(keep, seq)
			}
		}
		c.deferred = keep
	}

	// Fetch/dispatch.
	for w := 0; w < c.cfg.Width && c.count < len(c.buf); w++ {
		inst := c.gen.At(c.nextIdx)
		e := c.at(c.count)
		*e = robEntry{seq: c.nextIdx, runahead: c.inRunahead}
		c.nextIdx++
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
		if e.dep {
			e.depOn = c.prevMemSeq
		}
		c.prevMemSeq = e.seq
		c.havePrevMem = true
		if !c.tryIssue(e, now) {
			c.deferred = append(c.deferred, e.seq)
		}
	}
}

// tryIssue attempts to send the load to memory; it reports whether the
// load is settled (issued, or resolved without a memory access) as opposed
// to needing a retry.
func (c *Core) tryIssue(e *robEntry, now uint64) bool {
	if e.retryAt > now {
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
		e.retryAt = now + 8
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
// change. The caller must re-evaluate after any executed cycle and after
// any Complete delivery.
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
	for _, seq := range c.deferred {
		d := c.entryBySeq(seq)
		if d == nil || d.issued {
			continue // flushed by runahead exit, or issued meanwhile
		}
		if d.retryAt > now {
			if d.retryAt < next {
				next = d.retryAt
			}
			continue
		}
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

// InRunahead reports whether the core is currently in runahead mode.
func (c *Core) InRunahead() bool { return c.inRunahead }

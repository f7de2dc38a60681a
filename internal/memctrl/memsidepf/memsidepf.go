// Package memsidepf implements a DROPLET-style memory-side prefetch
// path: each controller owns a bounded list of prefetch candidates
// generated from the demand stream it actually sees, and drains that
// list only into idle row-buffer-hit windows — an open row, a ready
// bank, an empty bucket — so memory-side prefetches ride the locality
// the demands already paid for and never contend for a row activation.
//
// The engine is deliberately dumb about policy: the controller decides
// when a window is idle, the simulator supplies the cache/MSHR dedupe
// filter and the PADC accuracy gate, and pressure is handled by
// dropping the whole candidate list the moment demand occupancy climbs
// — a memory-side prefetch is the cheapest request to sacrifice.
package memsidepf

import "padc/internal/dram"

// Config sizes the memory-side prefetch engine.
type Config struct {
	// ListSize bounds the candidate list; the oldest candidate is
	// dropped when a new one arrives at a full list.
	ListSize int
	// Degree is how many next lines of the triggering demand's DRAM row
	// are generated per demand (never crossing the row boundary, so
	// every candidate is a potential row hit at the same bank).
	Degree int
	// MaxAge drops candidates that waited longer than this many cycles
	// for an idle window: the open row that motivated them is long gone.
	MaxAge uint64
	// PressureFrac is the demand-occupancy fraction of the controller's
	// buffer at which the whole candidate list is dropped.
	PressureFrac float64
}

// DefaultConfig returns the DROPLET-flavored defaults: a 128-entry
// list, degree 4, a 10k-cycle staleness bound, and list drop once
// demands fill half the request buffer.
func DefaultConfig() Config {
	return Config{ListSize: 128, Degree: 4, MaxAge: 10_000, PressureFrac: 0.5}
}

// Candidate is one pending memory-side prefetch: the line to fetch, its
// DRAM coordinates, the core whose demand generated it (the L2 the fill
// targets), and its birth cycle for staleness.
type Candidate struct {
	Core int
	Line uint64
	Addr dram.Address
	Born uint64
}

// Window is one idle row-hit window the controller offers to Take: a
// bank with no waiting work, ready and not refresh-blocked, and the row
// it holds open.
type Window struct {
	Bank int
	Row  uint64
}

// none marks an empty index bucket and the end of a slot chain.
const none int32 = -1

// slot is one entry of the engine's fixed candidate table. A live slot
// sits on two FIFOs: the global one (prev/next), which orders overflow
// eviction and staleness, and the one of its (bank, row) (rnext), which
// lets Take reach a window's oldest candidate directly. A free slot is
// chained to the next free one through next.
type slot struct {
	c          Candidate
	seq        uint64 // admission order: smaller is older
	prev, next int32
	rnext      int32
	rtail      int32 // youngest slot of this (bank, row) FIFO; kept on its head
}

// Engine is one controller's memory-side prefetch state. Its candidates
// live in a fixed table of ListSize slots, found through two fixed
// open-addressing hash indexes: byLine maps a line to its slot (the
// dedupe check; a line is queued at most once) and byRow maps a
// (bank, row) to the head of its FIFO. A bucket holds a slot number and
// the key is read from that slot, so neither index stores keys. After
// New the engine never allocates.
type Engine struct {
	cfg Config
	lpr uint64 // lines per DRAM row

	slots      []slot
	free       int32 // first free slot
	head, tail int32 // global FIFO: oldest and youngest live slot
	n          int   // live slots
	seq        uint64

	byLine, byRow []int32
	shift         uint // 64 - log2(index size), for Fibonacci hashing

	filter func(core int, line uint64) bool
	gate   func() bool

	// Counters. Generated counts candidate lines proposed, Enqueued the
	// ones admitted to the list, Issued the ones handed to the
	// controller for DRAM; the Dropped* family partitions every admitted
	// candidate that never issued, and Filtered counts proposals the
	// dedupe filter rejected before admission.
	Generated       uint64
	Enqueued        uint64
	Issued          uint64
	Filtered        uint64
	DroppedOverflow uint64
	DroppedStale    uint64
	DroppedPressure uint64
	// GateClosed counts demand triggers suppressed whole by the PADC
	// accuracy gate (low measured memory-side accuracy).
	GateClosed uint64
}

// New builds an engine for one controller; linesPerRow is its channel's
// dram.Config.LinesPerRow(). Zero config fields fall back to
// DefaultConfig.
func New(cfg Config, linesPerRow uint64) *Engine {
	def := DefaultConfig()
	if cfg.ListSize <= 0 {
		cfg.ListSize = def.ListSize
	}
	if cfg.Degree <= 0 {
		cfg.Degree = def.Degree
	}
	if cfg.MaxAge == 0 {
		cfg.MaxAge = def.MaxAge
	}
	if cfg.PressureFrac == 0 {
		cfg.PressureFrac = def.PressureFrac
	}
	if linesPerRow == 0 {
		linesPerRow = 1
	}
	// Each index has at least twice as many buckets as slots, so probe
	// runs stay short.
	size, shift := 2, uint(63)
	for size < 2*cfg.ListSize {
		size, shift = size*2, shift-1
	}
	idx := make([]int32, 2*size)
	e := &Engine{
		cfg:    cfg,
		lpr:    linesPerRow,
		slots:  make([]slot, cfg.ListSize),
		byLine: idx[:size:size],
		byRow:  idx[size:],
		shift:  shift,
	}
	e.reset()
	return e
}

// reset empties the list and both indexes.
func (e *Engine) reset() {
	e.head, e.tail, e.n = none, none, 0
	for i := range e.slots {
		e.slots[i].next = int32(i) + 1
	}
	e.slots[len(e.slots)-1].next = none
	e.free = 0
	for i := range e.byLine {
		e.byLine[i] = none
		e.byRow[i] = none
	}
}

// SetFilter installs the dedupe predicate: true means the line is
// already cached or in flight for that core and must not be fetched
// again. The simulator wires this to its L2 + MSHR state.
func (e *Engine) SetFilter(f func(core int, line uint64) bool) { e.filter = f }

// SetGate installs the accuracy gate consulted once per demand trigger:
// false suppresses candidate generation entirely. The simulator wires
// this to the per-tier PADC memory-side accuracy estimate.
func (e *Engine) SetGate(g func() bool) { e.gate = g }

// Pending returns the number of buffered candidates.
func (e *Engine) Pending() int { return e.n }

func (e *Engine) lineHome(line uint64) int {
	return int(line * 0x9E3779B97F4A7C15 >> e.shift)
}

func (e *Engine) rowHome(bank int, row uint64) int {
	return int((row<<8 ^ uint64(bank)) * 0x9E3779B97F4A7C15 >> e.shift)
}

// findLine returns the bucket holding line's slot, or the empty bucket
// where it would go, and the slot (none when absent).
func (e *Engine) findLine(line uint64) (int, int32) {
	mask := len(e.byLine) - 1
	for i := e.lineHome(line); ; i = (i + 1) & mask {
		if s := e.byLine[i]; s == none || e.slots[s].c.Line == line {
			return i, s
		}
	}
}

// findRow is findLine for the (bank, row) index: the slot is the head of
// that row's FIFO.
func (e *Engine) findRow(bank int, row uint64) (int, int32) {
	mask := len(e.byRow) - 1
	for i := e.rowHome(bank, row); ; i = (i + 1) & mask {
		s := e.byRow[i]
		if s == none {
			return i, none
		}
		if a := e.slots[s].c.Addr; a.Bank == bank && a.Row == row {
			return i, s
		}
	}
}

// unindex empties bucket i of idx, shifting later entries of its probe
// run back so every entry stays reachable from its home bucket.
func (e *Engine) unindex(idx []int32, i int, rows bool) {
	mask := len(idx) - 1
	for j := (i + 1) & mask; idx[j] != none; j = (j + 1) & mask {
		c := &e.slots[idx[j]].c
		h := e.lineHome(c.Line)
		if rows {
			h = e.rowHome(c.Addr.Bank, c.Addr.Row)
		}
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-h)&mask >= (j-i)&mask {
			idx[i] = idx[j]
			i = j
		}
	}
	idx[i] = none
}

// push appends c to the global FIFO and to its (bank, row) FIFO; lb is
// the empty byLine bucket findLine returned for c.Line.
func (e *Engine) push(c Candidate, lb int) {
	s := e.free
	e.free = e.slots[s].next
	e.slots[s] = slot{c: c, seq: e.seq, prev: e.tail, next: none, rnext: none, rtail: s}
	e.seq++
	if e.tail == none {
		e.head = s
	} else {
		e.slots[e.tail].next = s
	}
	e.tail = s
	e.byLine[lb] = s
	if rb, h := e.findRow(c.Addr.Bank, c.Addr.Row); h == none {
		e.byRow[rb] = s
	} else {
		e.slots[e.slots[h].rtail].rnext = s
		e.slots[h].rtail = s
	}
	e.n++
}

// remove unlinks slot s, which heads its (bank, row) FIFO, and frees it.
// Every removal the engine makes is of such a slot: the global oldest
// candidate is the oldest on its row, and Take picks a row's oldest.
func (e *Engine) remove(s int32) Candidate {
	sl := &e.slots[s]
	if sl.prev == none {
		e.head = sl.next
	} else {
		e.slots[sl.prev].next = sl.next
	}
	if sl.next == none {
		e.tail = sl.prev
	} else {
		e.slots[sl.next].prev = sl.prev
	}
	rb, _ := e.findRow(sl.c.Addr.Bank, sl.c.Addr.Row)
	if sl.rnext == none {
		e.unindex(e.byRow, rb, true)
	} else {
		e.byRow[rb] = sl.rnext
		e.slots[sl.rnext].rtail = sl.rtail
	}
	lb, _ := e.findLine(sl.c.Line)
	e.unindex(e.byLine, lb, false)
	sl.next = e.free
	e.free = s
	e.n--
	return sl.c
}

// Train observes one demand admitted at the controller and generates up
// to Degree candidates for the next lines of the same DRAM row. Both the
// global address map and topology steering interleave at row
// granularity, so a same-row neighbor provably shares the demand's
// channel, bank, and row: its address is the trigger's with the column
// advanced, no re-mapping needed — and each candidate is a row hit while
// that row stays open. now must never decrease from one call to the
// next (the controller passes each demand's arrival cycle), so Born
// never decreases along the list.
func (e *Engine) Train(core int, line uint64, addr dram.Address, now uint64) {
	if e.gate != nil && !e.gate() {
		e.GateClosed++
		return
	}
	for i := uint64(1); i <= uint64(e.cfg.Degree) && addr.Col+i < e.lpr; i++ {
		cand := line + i
		e.Generated++
		lb, dup := e.findLine(cand)
		if dup != none {
			continue // already queued
		}
		if e.filter != nil && e.filter(core, cand) {
			e.Filtered++
			continue
		}
		if e.n >= e.cfg.ListSize {
			e.remove(e.head)
			e.DroppedOverflow++
			lb, _ = e.findLine(cand) // the eviction may have moved the empty bucket
		}
		a := addr
		a.Col += i
		e.push(Candidate{Core: core, Line: cand, Addr: a, Born: now}, lb)
		e.Enqueued++
	}
}

// Take drops the stale candidates, then returns the oldest remaining
// candidate that falls in one of the idle windows (same bank, row equal
// to the open row), removing it from the list; ok=false when none does.
// Born never decreases along the list (see Train), so the stale
// candidates are always a prefix of it: dropping from the head until a
// fresh candidate appears sheds exactly the candidates a full scan would
// find stale. Each window costs one lookup of its (bank, row) FIFO,
// whose head is that window's oldest candidate, so a call costs
// O(len(idle)) plus the candidates it drops, never O(Pending).
func (e *Engine) Take(now uint64, idle []Window) (Candidate, bool) {
	for e.head != none && now > e.slots[e.head].c.Born+e.cfg.MaxAge {
		e.remove(e.head)
		e.DroppedStale++
	}
	if e.n == 0 {
		return Candidate{}, false
	}
	best := none
	for _, w := range idle {
		_, h := e.findRow(w.Bank, w.Row)
		if h != none && (best == none || e.slots[h].seq < e.slots[best].seq) {
			best = h
		}
	}
	if best == none {
		return Candidate{}, false
	}
	e.Issued++
	return e.remove(best), true
}

// DropPressure empties the candidate list (demand occupancy crossed the
// pressure threshold) and returns how many candidates were shed.
func (e *Engine) DropPressure() int {
	n := e.n
	e.reset()
	e.DroppedPressure += uint64(n)
	return n
}

// PressureAt reports whether a demand occupancy of demands out of
// capacity buffer slots crosses the drop threshold.
func (e *Engine) PressureAt(demands, capacity int) bool {
	return float64(demands) > e.cfg.PressureFrac*float64(capacity)
}

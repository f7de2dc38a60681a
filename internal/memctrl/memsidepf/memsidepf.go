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

// Engine is one controller's memory-side prefetch state.
type Engine struct {
	cfg    Config
	lpr    uint64 // lines per DRAM row
	list   []Candidate
	have   map[uint64]int // line -> count in list (dedupe)
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
	return &Engine{
		cfg:  cfg,
		lpr:  linesPerRow,
		list: make([]Candidate, 0, cfg.ListSize),
		have: make(map[uint64]int, cfg.ListSize),
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
func (e *Engine) Pending() int { return len(e.list) }

// remove deletes list[i] preserving FIFO order and keeps the dedupe
// index in sync.
func (e *Engine) remove(i int) Candidate {
	c := e.list[i]
	copy(e.list[i:], e.list[i+1:])
	e.list = e.list[:len(e.list)-1]
	if n := e.have[c.Line] - 1; n <= 0 {
		delete(e.have, c.Line)
	} else {
		e.have[c.Line] = n
	}
	return c
}

// Train observes one demand admitted at the controller and generates up
// to Degree candidates for the next lines of the same DRAM row. Both the
// global address map and topology steering interleave at row
// granularity, so a same-row neighbor provably shares the demand's
// channel, bank, and row: its address is the trigger's with the column
// advanced, no re-mapping needed — and each candidate is a row hit while
// that row stays open.
func (e *Engine) Train(core int, line uint64, addr dram.Address, now uint64) {
	if e.gate != nil && !e.gate() {
		e.GateClosed++
		return
	}
	for i := uint64(1); i <= uint64(e.cfg.Degree) && addr.Col+i < e.lpr; i++ {
		cand := line + i
		e.Generated++
		if e.have[cand] > 0 {
			continue // already queued
		}
		if e.filter != nil && e.filter(core, cand) {
			e.Filtered++
			continue
		}
		if len(e.list) >= e.cfg.ListSize {
			e.remove(0)
			e.DroppedOverflow++
		}
		a := addr
		a.Col += i
		e.list = append(e.list, Candidate{Core: core, Line: cand, Addr: a, Born: now})
		e.have[cand]++
		e.Enqueued++
	}
}

// Take returns the oldest still-fresh candidate whose DRAM coordinates
// the controller accepts (idle bank, matching open row), removing it
// from the list; ok=false when no candidate qualifies. Stale candidates
// encountered during the scan are dropped as a side effect.
func (e *Engine) Take(now uint64, accept func(a dram.Address) bool) (Candidate, bool) {
	for i := 0; i < len(e.list); {
		c := e.list[i]
		if now > c.Born+e.cfg.MaxAge {
			e.remove(i)
			e.DroppedStale++
			continue
		}
		if accept(c.Addr) {
			e.remove(i)
			e.Issued++
			return c, true
		}
		i++
	}
	return Candidate{}, false
}

// DropPressure empties the candidate list (demand occupancy crossed the
// pressure threshold) and returns how many candidates were shed.
func (e *Engine) DropPressure() int {
	n := len(e.list)
	e.list = e.list[:0]
	for k := range e.have {
		delete(e.have, k)
	}
	e.DroppedPressure += uint64(n)
	return n
}

// PressureAt reports whether a demand occupancy of demands out of
// capacity buffer slots crosses the drop threshold.
func (e *Engine) PressureAt(demands, capacity int) bool {
	return float64(demands) > e.cfg.PressureFrac*float64(capacity)
}

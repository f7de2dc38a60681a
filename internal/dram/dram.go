// Package dram models a DDR3-like SDRAM subsystem at the granularity the
// MICRO-41 PADC paper schedules it: per-bank row buffers with row-hit /
// row-closed / row-conflict latencies, a shared data bus per channel, and
// one or more independent channels (memory controllers).
//
// The model is request-level: a read request scheduled to a bank occupies
// that bank for the full precharge/activate/CAS sequence its row-buffer
// state requires, and reserves the channel's data bus for the burst at the
// end of the access. Banks on a channel overlap freely except for the bus;
// this preserves the bank-level parallelism and the ~3x row-hit versus
// row-conflict latency asymmetry that every scheduling policy in the paper
// exploits.
package dram

import (
	"fmt"

	"padc/internal/dram/refresh"
)

// Timing holds DRAM timing parameters in processor cycles. The defaults
// correspond to the paper's DDR3-1333 part (15ns per command) on a 4GHz
// core: tRP = tRCD = CL = 60 cycles and a 64B line occupying the 16B-wide
// DDR bus for 12 cycles. A row-hit therefore costs 72 cycles and a
// row-conflict 192 — the ~1:3 asymmetry the paper's scheduling effects
// depend on — and peak bandwidth is one line per 12 cycles.
type Timing struct {
	TRP   uint64 // precharge latency
	TRCD  uint64 // activate (row open) latency
	CL    uint64 // read/write (CAS) latency
	Burst uint64 // data bus occupancy per cache-line transfer
}

// DDR3 returns the paper's baseline DDR3-1333 timing.
func DDR3() Timing {
	return Timing{TRP: 60, TRCD: 60, CL: 60, Burst: 12}
}

// RowState classifies the row-buffer state a request finds at its bank.
type RowState uint8

const (
	RowHit RowState = iota
	RowClosed
	RowConflict
)

func (s RowState) String() string {
	switch s {
	case RowHit:
		return "row-hit"
	case RowClosed:
		return "row-closed"
	case RowConflict:
		return "row-conflict"
	default:
		return fmt.Sprintf("RowState(%d)", int(s))
	}
}

// Latency returns the total access latency a request experiences when it
// finds the bank in state s.
func (t Timing) Latency(s RowState) uint64 {
	switch s {
	case RowHit:
		return t.CL + t.Burst
	case RowClosed:
		return t.TRCD + t.CL + t.Burst
	default:
		return t.TRP + t.TRCD + t.CL + t.Burst
	}
}

// Config describes the DRAM geometry and management policies.
type Config struct {
	Channels    int    // independent memory controllers
	Banks       int    // banks per channel
	RowBytes    uint64 // row-buffer size per bank
	LineBytes   uint64 // cache-line (transfer) size
	Timing      Timing
	Permutation bool // permutation-based bank index remapping (Zhang et al.)

	// Page selects the row-buffer management policy (open, closed, or the
	// adaptive per-bank predictor).
	Page PagePolicy

	// Refresh configures the maintenance engine (off by default); the
	// memory controller owns its scheduling (see internal/dram/refresh).
	Refresh refresh.Config
}

// TickEvery is the controller scheduling period in processor cycles: one
// scheduling decision per DRAM bus cycle on the 4GHz core.
const TickEvery uint64 = 4

// EffectiveTickEvery returns TickEvery. It is kept as a method only for
// the benchmark harness (bench/padcbench), which calls it and is changed
// separately from the simulator.
func (c Config) EffectiveTickEvery() uint64 { return TickEvery }

// DefaultConfig is the paper's baseline: one channel, 8 banks, 4KB rows,
// 64B lines, open-row policy, and the DDR3-1333 refresh timing with
// refresh off.
func DefaultConfig() Config {
	return Config{
		Channels:  1,
		Banks:     8,
		RowBytes:  4096,
		LineBytes: 64,
		Timing:    DDR3(),
		Refresh:   refresh.DefaultConfig(),
	}
}

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1:
		return fmt.Errorf("dram: need at least one channel, got %d", c.Channels)
	case c.Banks < 1 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("dram: banks must be a power of two, got %d", c.Banks)
	case c.RowBytes == 0 || c.LineBytes == 0:
		return fmt.Errorf("dram: row (%d) and line (%d) bytes must be nonzero", c.RowBytes, c.LineBytes)
	case c.RowBytes%c.LineBytes != 0:
		return fmt.Errorf("dram: row size %d not a multiple of line size %d", c.RowBytes, c.LineBytes)
	case c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("dram: channels must be a power of two, got %d", c.Channels)
	case c.Page < OpenPage || c.Page > AdaptivePage:
		return fmt.Errorf("dram: unknown page policy %d", int(c.Page))
	}
	return c.Refresh.Validate()
}

// LinesPerRow returns the number of cache lines a row buffer caches.
func (c *Config) LinesPerRow() uint64 { return c.RowBytes / c.LineBytes }

// Address is a physical line address decomposed into DRAM coordinates.
type Address struct {
	Channel int
	Bank    int
	Row     uint64
	Col     uint64
}

// Map decomposes a cache-line address (byte address >> log2(LineBytes))
// into channel, bank, row and column. Consecutive lines walk a row; rows
// interleave across channels then banks, so streams exploit the row buffer
// while independent streams spread over banks.
func (c *Config) Map(lineAddr uint64) Address {
	lpr := c.LinesPerRow()
	col := lineAddr % lpr
	rest := lineAddr / lpr
	ch := int(rest % uint64(c.Channels))
	rest /= uint64(c.Channels)
	bank := int(rest % uint64(c.Banks))
	row := rest / uint64(c.Banks)
	if c.Permutation {
		// Permutation-based page interleaving: XOR low row bits into the
		// bank index to spread row-conflicting addresses across banks.
		bank = bank ^ int(row%uint64(c.Banks))
	}
	return Address{Channel: ch, Bank: bank, Row: row, Col: col}
}

// Unmap is the inverse of Map: it reassembles the cache-line address from
// DRAM coordinates. Map and Unmap form a bijection over line addresses —
// including with Permutation enabled, since the XOR bank remap is
// self-inverse given the row.
func (c *Config) Unmap(a Address) uint64 {
	bank := a.Bank
	if c.Permutation {
		bank = bank ^ int(a.Row%uint64(c.Banks))
	}
	rest := a.Row*uint64(c.Banks) + uint64(bank)
	rest = rest*uint64(c.Channels) + uint64(a.Channel)
	return rest*c.LinesPerRow() + a.Col
}

// Bank is the state of one DRAM bank.
type Bank struct {
	OpenRow   int64  // -1 when no row is open (precharged)
	BusyUntil uint64 // cycle at which the bank can accept a new request

	// Stats.
	Hits      uint64
	Closed    uint64
	Conflicts uint64
}

// State classifies what a request to row would currently find.
func (b *Bank) State(row uint64) RowState {
	switch {
	case b.OpenRow < 0:
		return RowClosed
	case b.OpenRow == int64(row):
		return RowHit
	default:
		return RowConflict
	}
}

// Channel is one memory controller's DRAM resources: its banks plus the
// shared data bus.
type Channel struct {
	cfg      Config
	pred     []pagePredictor // per-bank predictors (AdaptivePage only)
	Banks    []Bank
	busUntil uint64 // data bus reserved through this cycle

	// Command stats for telemetry: row activations, precharges (explicit
	// on a conflict, hidden under the closed-row policy), and data-bus
	// occupancy in cycles.
	Activations   uint64
	Precharges    uint64
	BusBusyCycles uint64

	// Refreshes counts the maintenance operations applied to this
	// channel's banks; PredCloses counts precharges the adaptive page
	// predictor decided (a subset of Precharges).
	Refreshes  uint64
	PredCloses uint64
}

// NewChannel builds the banks for one channel of cfg.
func NewChannel(cfg Config) *Channel {
	ch := &Channel{cfg: cfg, Banks: make([]Bank, cfg.Banks)}
	for i := range ch.Banks {
		ch.Banks[i].OpenRow = -1
	}
	if cfg.Page == AdaptivePage {
		ch.pred = make([]pagePredictor, cfg.Banks)
		for i := range ch.pred {
			ch.pred[i] = newPagePredictor()
		}
	}
	return ch
}

// BankReady reports whether bank b can accept a request at cycle now.
func (ch *Channel) BankReady(b int, now uint64) bool {
	return ch.Banks[b].BusyUntil <= now
}

// Issue schedules a request to (bank, row) at cycle now and returns the
// completion cycle (when the line's burst has fully transferred) and the
// row-buffer state the request found. The caller must have checked
// BankReady. keepOpen tells the channel whether more row-hit work for
// this row is pending; the closed-row and adaptive page policies keep the
// row open in that case and otherwise may precharge it for free after the
// access (the closed-row policy always does, the adaptive policy when its
// per-bank predictor votes precharge). The open-row policy ignores it.
func (ch *Channel) Issue(bank int, row, now uint64, keepOpen bool) (finish uint64, state RowState) {
	b := &ch.Banks[bank]
	state = b.State(row)
	lat := ch.cfg.Timing.Latency(state)

	// The burst must win the shared data bus; delay the whole access until
	// the bus slot at its tail is free.
	start := now
	if dataAt := start + lat - ch.cfg.Timing.Burst; dataAt < ch.busUntil {
		start += ch.busUntil - dataAt
	}
	finish = start + lat
	ch.busUntil = finish
	b.BusyUntil = finish

	switch state {
	case RowHit:
		b.Hits++
	case RowClosed:
		b.Closed++
		ch.Activations++
	default:
		b.Conflicts++
		ch.Activations++
		ch.Precharges++
	}
	ch.BusBusyCycles += ch.cfg.Timing.Burst

	switch ch.cfg.Page {
	case ClosedPage:
		if keepOpen {
			b.OpenRow = int64(row)
		} else {
			ch.Precharges++ // the closed-row policy's hidden precharge
			b.OpenRow = -1
		}
	case AdaptivePage:
		p := &ch.pred[bank]
		p.train(state, row)
		if keepOpen || p.keepOpen() {
			b.OpenRow = int64(row)
		} else {
			ch.Precharges++
			ch.PredCloses++
			b.OpenRow = -1
		}
		p.lastRow = int64(row)
	default: // open-page: the row stays open until a conflict evicts it
		b.OpenRow = int64(row)
	}
	return finish, state
}

// Refresh occupies bank b with a maintenance operation through cycle
// until: the row buffer is precharged and the bank accepts no request
// before the refresh completes. Refresh commands do not use the data bus.
// The caller (the memory controller's refresh engine) must have checked
// BankReady.
func (ch *Channel) Refresh(b int, until uint64) {
	bank := &ch.Banks[b]
	if bank.OpenRow >= 0 {
		ch.Precharges++ // refresh implies precharging the open row
	}
	bank.OpenRow = -1
	bank.BusyUntil = until
	ch.Refreshes++
}

// Counts returns the channel-wide row-buffer outcome totals summed over
// banks: (hits, closed, conflicts).
func (ch *Channel) Counts() (hits, closed, conflicts uint64) {
	for i := range ch.Banks {
		hits += ch.Banks[i].Hits
		closed += ch.Banks[i].Closed
		conflicts += ch.Banks[i].Conflicts
	}
	return hits, closed, conflicts
}

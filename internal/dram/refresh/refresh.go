// Package refresh is the DRAM maintenance engine: a cycle-level model of
// DDR3-style periodic refresh with the JEDEC postpone/pull-in credit
// window. Every refresh unit (one bank under per-bank refresh, the whole
// rank under all-bank refresh) accrues one refresh obligation per tREFI;
// servicing an obligation occupies the unit for tRFC. The controller may
// postpone up to MaxPostpone obligations when demand traffic is waiting
// and pull refreshes in ahead of schedule when banks idle, banking up to
// MaxPostpone credits; when the postpone budget is exhausted the unit
// must refresh before it accepts any other access (the forced-refresh
// deadline path).
//
// The engine is pure bookkeeping: it decides when a refresh may, should,
// or must issue and accounts the credits, but the memory controller owns
// the actual scheduling (internal/memctrl consults the engine before
// issuing requests and applies refresh busy windows to the DRAM banks).
// That split keeps this package free of controller and channel internals,
// mirroring internal/memctrl/sched.
package refresh

import "fmt"

// Mode selects the refresh granularity.
type Mode int

const (
	// Off disables refresh entirely (the historical simulator behavior
	// and the default, so existing artifacts stay byte-identical).
	Off Mode = iota
	// PerBank refreshes one bank at a time (DDR4 REFpb-style): each bank
	// accrues its own obligations on a staggered schedule and blocks only
	// itself for the shorter TRFCpb.
	PerBank
	// AllBank refreshes the whole rank at once (DDR3 REF): one obligation
	// stream, and a refresh blocks every bank for TRFC.
	AllBank
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case PerBank:
		return "per-bank"
	case AllBank:
		return "all-bank"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps the configuration-surface spellings onto a Mode. The
// empty string is Off, so zero-valued configs mean "no refresh".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "per-bank":
		return PerBank, nil
	case "all-bank":
		return AllBank, nil
	default:
		return Off, fmt.Errorf("refresh: unknown mode %q (off, per-bank, all-bank)", s)
	}
}

// ModeNames returns the accepted ParseMode vocabulary.
func ModeNames() []string { return []string{"off", "per-bank", "all-bank"} }

// Config holds the refresh timing in processor cycles. The defaults
// correspond to a DDR3-1333 2Gb part on the 4GHz core the rest of the
// simulator assumes: tREFI = 7.8us = 31200 cycles, tRFC = 160ns = 640
// cycles for an all-bank refresh, and 90ns = 360 cycles for a per-bank
// one. MaxPostpone is the JEDEC window of 8 refreshes that may be
// postponed past their tREFI slot (and symmetrically pulled in early).
type Config struct {
	Mode        Mode
	TREFI       uint64 // cycles between refresh obligations per unit
	TRFC        uint64 // all-bank refresh occupancy in cycles
	TRFCpb      uint64 // per-bank refresh occupancy in cycles
	MaxPostpone int    // postpone/pull-in credit window
}

// DefaultConfig returns the DDR3-1333 refresh timing with refresh Off.
func DefaultConfig() Config {
	return Config{Mode: Off, TREFI: 31_200, TRFC: 640, TRFCpb: 360, MaxPostpone: 8}
}

// Enabled reports whether the config asks for any refresh at all.
func (c Config) Enabled() bool { return c.Mode != Off }

// Validate reports a descriptive error for impossible refresh timings,
// read as written: a zero refresh occupancy, one as long as tREFI, or no
// postpone window. A config with refresh Off is never read.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.Mode != PerBank && c.Mode != AllBank:
		return fmt.Errorf("refresh: unknown mode %d", int(c.Mode))
	case c.TRFC == 0 || c.TRFCpb == 0:
		return fmt.Errorf("refresh: tRFC (%d/%d) must be positive", c.TRFC, c.TRFCpb)
	case c.TRFC >= c.TREFI || c.TRFCpb >= c.TREFI:
		return fmt.Errorf("refresh: tRFC (%d/%d) must be shorter than tREFI (%d)", c.TRFC, c.TRFCpb, c.TREFI)
	case c.MaxPostpone < 1:
		return fmt.Errorf("refresh: MaxPostpone must be positive, got %d", c.MaxPostpone)
	}
	return nil
}

// Unit is one refresh domain's state: a bank under PerBank, the whole
// rank under AllBank.
type Unit struct {
	NextDue   uint64 // cycle at which the next obligation accrues
	Owed      int    // outstanding obligations; negative = pulled-in ahead
	BusyUntil uint64 // refresh in progress through this cycle
	Accrued   uint64 // total obligations accrued (tREFI windows elapsed)
	Issued    uint64 // refreshes issued for this unit
}

// Engine tracks refresh obligations and credits for one channel.
type Engine struct {
	cfg   Config
	banks int
	units []Unit
	last  uint64 // cycle of the previous Advance
	dt    uint64 // cycles covered by the current Advance
	dtCap uint64 // upper bound on dt (0 = uncapped); see CapDelta

	// Counters (telemetry and the ablation read these).
	Issued        uint64 // refreshes issued
	Postponed     uint64 // obligations that slipped past a full tREFI window
	PulledIn      uint64 // refreshes issued ahead of schedule on idle banks
	Forced        uint64 // refreshes issued on the exhausted-credit deadline path
	BlockedCycles uint64 // cycles a bank with waiting requests was refresh-blocked
}

// NewEngine builds the engine for a channel with the given bank count,
// running cfg as written (Validate rejects timings it cannot run).
// Per-bank units are staggered across the tREFI window, as real
// controllers spread REFpb commands.
func NewEngine(cfg Config, banks int) *Engine {
	e := &Engine{cfg: cfg, banks: banks}
	n := 1
	if cfg.Mode == PerBank {
		n = banks
	}
	e.units = make([]Unit, n)
	for u := range e.units {
		e.units[u].NextDue = cfg.TREFI * uint64(u+1) / uint64(n)
	}
	return e
}

// Config returns the timing the engine runs with.
func (e *Engine) Config() Config { return e.cfg }

// Mode returns the refresh granularity.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Duration returns how many cycles one refresh occupies its unit.
func (e *Engine) Duration() uint64 {
	if e.cfg.Mode == PerBank {
		return e.cfg.TRFCpb
	}
	return e.cfg.TRFC
}

// unit maps a bank index onto its refresh unit.
func (e *Engine) unit(bank int) *Unit {
	if e.cfg.Mode == PerBank {
		return &e.units[bank]
	}
	return &e.units[0]
}

// Advance accrues the obligations whose tREFI slots have passed by now.
// An obligation accruing while an earlier one is still outstanding means
// that earlier refresh has been postponed past a full window. Call once
// per controller tick, with non-decreasing cycles.
func (e *Engine) Advance(now uint64) {
	if now > e.last {
		e.dt = now - e.last
		e.last = now
	} else {
		e.dt = 0
	}
	if e.dtCap != 0 && e.dt > e.dtCap {
		e.dt = e.dtCap
	}
	for u := range e.units {
		unit := &e.units[u]
		for now >= unit.NextDue {
			if unit.Owed >= 1 {
				e.Postponed++
			}
			unit.Owed++
			unit.Accrued++
			unit.NextDue += e.cfg.TREFI
		}
	}
}

// Due reports whether bank's unit has an outstanding obligation it could
// service now (not already refreshing).
func (e *Engine) Due(bank int, now uint64) bool {
	u := e.unit(bank)
	return u.Owed > 0 && u.BusyUntil <= now
}

// MustRefresh reports whether bank's unit has exhausted its postpone
// credits: the controller must refresh it before issuing anything else.
func (e *Engine) MustRefresh(bank int) bool {
	return e.unit(bank).Owed >= e.cfg.MaxPostpone
}

// Refreshing reports whether bank's unit is mid-refresh at now.
func (e *Engine) Refreshing(bank int, now uint64) bool {
	return e.unit(bank).BusyUntil > now
}

// Blocked reports whether bank may not accept a request at now: either a
// refresh is in progress, or the forced-refresh deadline has been reached
// and the bank must drain into a refresh first.
func (e *Engine) Blocked(bank int, now uint64) bool {
	return e.Refreshing(bank, now) || e.MustRefresh(bank)
}

// CanPullIn reports whether bank's unit may bank another pull-in credit
// by refreshing ahead of schedule.
func (e *Engine) CanPullIn(bank int) bool {
	return e.unit(bank).Owed > -e.cfg.MaxPostpone
}

// Start issues one refresh for bank's unit at now and returns the cycle
// through which the unit is occupied. The caller blocks the affected DRAM
// bank(s) until then. Issuing with no outstanding obligation consumes a
// pull-in credit; issuing at the credit deadline counts as forced.
func (e *Engine) Start(bank int, now uint64) (until uint64) {
	u := e.unit(bank)
	if u.Owed <= 0 {
		e.PulledIn++
	}
	if u.Owed >= e.cfg.MaxPostpone {
		e.Forced++
	}
	u.Owed--
	u.Issued++
	e.Issued++
	u.BusyUntil = now + e.Duration()
	return u.BusyUntil
}

// NoteBlocked accounts the cycles covered by the current Advance to
// refresh-blocked time; the controller calls it when a bank with waiting
// requests was unavailable because of refresh.
func (e *Engine) NoteBlocked() { e.BlockedCycles += e.dt }

// CapDelta bounds the per-Advance delta NoteBlocked charges. A caller
// that ticks the engine on a fixed grid of `period` cycles while traffic
// is waiting — but may legitimately skip ticks across provably-idle gaps
// (the event kernel) — sets the cap to that period, making the first
// post-gap NoteBlocked charge exactly what per-tick stepping would have
// charged. With every tick executed the delta already equals the period,
// so the cap is an identity there. Zero disables the cap.
func (e *Engine) CapDelta(period uint64) { e.dtCap = period }

// NextAccrual returns the earliest cycle at which any unit accrues its
// next obligation — the only spontaneous state change the engine makes,
// and therefore an event the cycle-skipping kernel must not jump past.
func (e *Engine) NextAccrual() uint64 {
	next := ^uint64(0)
	for u := range e.units {
		if e.units[u].NextDue < next {
			next = e.units[u].NextDue
		}
	}
	return next
}

// BusyUntil returns the cycle through which bank's unit is occupied by an
// in-progress refresh (a past cycle when idle) — the expiry event after
// which the unit can start its next refresh or unblock its bank.
func (e *Engine) BusyUntil(bank int) uint64 { return e.unit(bank).BusyUntil }

// Audit checks the refresh conservation invariant at cycle now (which
// must be >= the last Advance): every unit's issued refreshes equal its
// elapsed tREFI windows within the postpone/pull-in credit band. One
// window of slack absorbs the in-flight accrual at the audit instant.
func (e *Engine) Audit(now uint64) error {
	for ui := range e.units {
		u := &e.units[ui]
		first := e.cfg.TREFI * uint64(ui+1) / uint64(len(e.units))
		var windows uint64
		if now >= first {
			windows = (now-first)/e.cfg.TREFI + 1
		}
		if u.Accrued > windows || windows-u.Accrued > 1 {
			return fmt.Errorf("refresh: unit %d accrued %d obligations, %d tREFI windows elapsed", ui, u.Accrued, windows)
		}
		if int64(u.Accrued) != int64(u.Issued)+int64(u.Owed) {
			return fmt.Errorf("refresh: unit %d books do not balance: accrued=%d issued=%d owed=%d", ui, u.Accrued, u.Issued, u.Owed)
		}
		if u.Owed > e.cfg.MaxPostpone+1 || u.Owed < -e.cfg.MaxPostpone {
			return fmt.Errorf("refresh: unit %d owes %d refreshes, outside the +/-%d credit band", ui, u.Owed, e.cfg.MaxPostpone)
		}
	}
	return nil
}

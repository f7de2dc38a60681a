// Package flight is the bank-state flight recorder: bounded per-epoch ×
// per-bank accounting of what every DRAM bank did and why. Where the
// epoch sampler in internal/telemetry answers "what did the whole system
// do over time" and the event ring answers "what happened at cycle X",
// the flight recorder answers "what was bank (c,b) doing during epoch e":
// row hits/closed-row fills/conflicts, open/close (activate/precharge)
// transitions, demand vs. prefetch issue counts, refresh activity and
// refresh-blocked scheduling slots, plus per-epoch rule-win attribution
// from the scheduler's rule stack.
//
// The recorder subscribes to the simulator's probe (internal/telemetry/
// probe): Observe folds issue, refresh and refresh-blocked events into
// the current epoch's cells. A nil *Recorder is a valid disabled
// instance. Memory is bounded: the recorder keeps lifetime
// per-bank totals plus a ring of the last MaxEpochs epochs — classic
// flight-recorder semantics, the most recent history survives — so
// arbitrarily long runs stay O(MaxEpochs × banks).
package flight

import (
	"padc/internal/dram"
	"padc/internal/telemetry/probe"
)

// Cell is one bank's accounting for one epoch (or, in Summary.Totals,
// for the whole run).
type Cell struct {
	// Hits, Closed and Conflicts count accesses by row-buffer outcome.
	Hits      uint64 `json:"hits"`
	Closed    uint64 `json:"closed"`
	Conflicts uint64 `json:"conflicts"`
	// Opens counts row activations; Closes counts precharges from any
	// cause (conflicts, closed-page policy, the adaptive predictor,
	// refresh), including those the scheduler never asked for.
	Opens  uint64 `json:"opens"`
	Closes uint64 `json:"closes"`
	// Demand and Pref count issued requests by class.
	Demand uint64 `json:"demand"`
	Pref   uint64 `json:"pref"`
	// Refreshes counts refresh operations started on the bank.
	// RefreshBlocked counts scheduler slots (controller ticks) in which
	// the bank had work but was busy refreshing.
	Refreshes      uint64 `json:"refreshes"`
	RefreshBlocked uint64 `json:"refresh_blocked"`
}

func (c *Cell) accumulate(o Cell) {
	c.Hits += o.Hits
	c.Closed += o.Closed
	c.Conflicts += o.Conflicts
	c.Opens += o.Opens
	c.Closes += o.Closes
	c.Demand += o.Demand
	c.Pref += o.Pref
	c.Refreshes += o.Refreshes
	c.RefreshBlocked += o.RefreshBlocked
}

func (c *Cell) zero() { *c = Cell{} }

// Epoch is one completed accounting interval: cells are channel-major
// (cell for channel c, bank b at index c*banks+b), RuleWins holds the
// per-channel rule-win deltas accumulated during the epoch (same order
// as Summary.Rules).
type Epoch struct {
	Index    int        `json:"epoch"`
	Start    uint64     `json:"start"`
	End      uint64     `json:"end"`
	Cells    []Cell     `json:"cells"`
	RuleWins [][]uint64 `json:"rule_wins,omitempty"`
	// BusBusy holds each channel's data-bus-busy cycles during the epoch
	// (index = channel), present only when a bus sampler was attached —
	// 1 − BusBusy[ch]/(End−Start) is the channel's bandwidth headroom.
	BusBusy []uint64 `json:"bus_busy,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// EpochCycles is the accounting interval; 0 uses DefaultEpochCycles.
	// The recorder itself is cadence-free — the simulation loop calls
	// Rotate — but the period is recorded so exporters can label axes.
	EpochCycles uint64
	// MaxEpochs bounds the retained-epoch ring; 0 uses DefaultMaxEpochs.
	MaxEpochs int
}

// DefaultEpochCycles is the rotation period when Options leaves it zero.
const DefaultEpochCycles = 10_000

// DefaultMaxEpochs is the ring bound when Options leaves it zero.
const DefaultMaxEpochs = 64

// ruleSource samples one channel's cumulative rule-win counters so
// Rotate can attribute per-epoch deltas.
type ruleSource struct {
	names  []string
	sample func() []uint64
	prev   []uint64
}

// busSource samples one channel's cumulative bus-busy cycle counter so
// Rotate can attribute per-epoch bandwidth deltas.
type busSource struct {
	sample func() uint64
	prev   uint64
}

// Recorder accumulates per-bank cells into the current epoch and, on
// Rotate, pushes the epoch into a bounded ring. A nil *Recorder is a
// valid disabled instance: every method no-ops.
type Recorder struct {
	opts     Options
	channels int
	banks    int

	cur   Epoch   // epoch being filled
	ring  []Epoch // retained completed epochs; slots reused once full
	head  int     // oldest retained epoch's slot
	count int     // retained epochs
	done  int     // epochs ever completed
	drop  int     // epochs evicted from the ring

	totals []Cell // lifetime per-bank accumulation (includes evicted epochs)
	rules  []ruleSource
	bus    []busSource
	// busAttached gates the bus-busy epoch column (and the heatmap's
	// trailing bus_busy column): recorders with no sampler export the
	// historical format unchanged.
	busAttached bool

	// domains, when set, labels each channel with its memory-domain name
	// (multi-tier topologies). Empty on flat machines, keeping their
	// exports byte-identical to the pre-topology format.
	domains []string
}

// New builds an enabled Recorder. Geometry is supplied by the simulation
// via Configure before any recording happens.
func New(opts Options) *Recorder {
	if opts.EpochCycles == 0 {
		opts.EpochCycles = DefaultEpochCycles
	}
	if opts.MaxEpochs <= 0 {
		opts.MaxEpochs = DefaultMaxEpochs
	}
	return &Recorder{opts: opts}
}

// EpochCycles returns the configured rotation period (0 for nil).
func (r *Recorder) EpochCycles() uint64 {
	if r == nil {
		return 0
	}
	return r.opts.EpochCycles
}

// Configure sets the bank geometry. The simulation calls it once at
// construction; calling again with the same geometry is a no-op, with a
// different one a panic (a recorder records one machine shape per run).
func (r *Recorder) Configure(channels, banks int) {
	if r == nil {
		return
	}
	if r.channels != 0 || r.banks != 0 {
		if r.channels != channels || r.banks != banks {
			panic("flight: recorder reconfigured with different geometry")
		}
		return
	}
	if channels <= 0 || banks <= 0 {
		panic("flight: non-positive geometry")
	}
	r.channels, r.banks = channels, banks
	r.cur = Epoch{Cells: make([]Cell, channels*banks)}
	r.totals = make([]Cell, channels*banks)
	r.rules = make([]ruleSource, channels)
	r.bus = make([]busSource, channels)
}

// LabelDomains tags each channel with its memory-domain name (index =
// channel). The simulation calls it only on multi-tier topologies;
// unlabeled recorders export the historical flat format unchanged.
func (r *Recorder) LabelDomains(names []string) {
	if r == nil || len(names) == 0 {
		return
	}
	if r.channels != 0 && len(names) != r.channels {
		panic("flight: domain labels do not match channel count")
	}
	r.domains = append([]string(nil), names...)
}

// AttachRules registers a channel's rule-win sampler: names label the
// scheduler's rules, sample returns the cumulative win counters in the
// same order. Rotate stores per-epoch deltas.
func (r *Recorder) AttachRules(ch int, names []string, sample func() []uint64) {
	if r == nil || ch < 0 || ch >= len(r.rules) {
		return
	}
	r.rules[ch] = ruleSource{
		names:  append([]string(nil), names...),
		sample: sample,
		prev:   make([]uint64, len(names)),
	}
}

// AttachBus registers a channel's bandwidth sampler: sample returns the
// channel's cumulative data-bus-busy cycles. Rotate stores per-epoch
// deltas, from which exporters derive the bandwidth-headroom gauge.
func (r *Recorder) AttachBus(ch int, sample func() uint64) {
	if r == nil || ch < 0 || ch >= len(r.bus) || sample == nil {
		return
	}
	r.bus[ch] = busSource{sample: sample}
	r.busAttached = true
}

// ready reports whether the recorder can accept events (non-nil and
// configured).
func (r *Recorder) ready() bool { return r != nil && r.banks != 0 }

// Observe folds one probe event into the current epoch's cell of its
// bank: an issued request's row-buffer outcome, its row activations and
// precharges and its class (demand or prefetch); a refresh starting on
// the bank, with the precharge of an open row it forced; and a scheduler
// slot in which the bank had waiting work but was refreshing. Other
// kinds do not touch bank state.
func (r *Recorder) Observe(ev probe.Event) {
	if !r.ready() || ev.Kind != probe.Issue && ev.Kind != probe.Refresh && ev.Kind != probe.RefreshBlocked {
		return
	}
	c := &r.cur.Cells[int(ev.Chan)*r.banks+int(ev.Bank)]
	switch ev.Kind {
	case probe.Issue:
		switch ev.Row {
		case dram.RowHit:
			c.Hits++
		case dram.RowClosed:
			c.Closed++
		case dram.RowConflict:
			c.Conflicts++
		}
		c.Opens += uint64(ev.Opens)
		c.Closes += uint64(ev.Closes)
		if ev.Pref {
			c.Pref++
		} else {
			c.Demand++
		}
	case probe.Refresh:
		c.Refreshes++
		c.Closes += uint64(ev.Closes)
	case probe.RefreshBlocked:
		c.RefreshBlocked++
	}
}

// Rotate closes the current epoch at cycle now and starts the next one.
// The simulation loop calls it on epoch boundaries and once more after
// the final partial epoch. A rotation with no elapsed cycles is a no-op,
// so the final call is safe when the run ended exactly on a boundary.
func (r *Recorder) Rotate(now uint64) {
	if !r.ready() || now <= r.cur.Start {
		return
	}
	var slot *Epoch
	if r.count < r.opts.MaxEpochs {
		r.ring = append(r.ring, Epoch{Cells: make([]Cell, len(r.cur.Cells))})
		slot = &r.ring[(r.head+r.count)%r.opts.MaxEpochs]
		r.count++
	} else {
		slot = &r.ring[r.head]
		r.head = (r.head + 1) % r.opts.MaxEpochs
		r.drop++
	}
	slot.Index = r.cur.Index
	slot.Start = r.cur.Start
	slot.End = now
	copy(slot.Cells, r.cur.Cells)
	slot.RuleWins = slot.RuleWins[:0]
	for ch := range r.rules {
		src := &r.rules[ch]
		if src.sample == nil {
			continue
		}
		cum := src.sample()
		delta := make([]uint64, len(cum))
		for i, v := range cum {
			if i < len(src.prev) {
				delta[i] = v - src.prev[i]
			} else {
				delta[i] = v
			}
		}
		src.prev = cum
		for len(slot.RuleWins) < ch {
			slot.RuleWins = append(slot.RuleWins, nil)
		}
		slot.RuleWins = append(slot.RuleWins, delta)
	}
	slot.BusBusy = slot.BusBusy[:0]
	if r.busAttached {
		for ch := range r.bus {
			src := &r.bus[ch]
			var delta uint64
			if src.sample != nil {
				cum := src.sample()
				delta = cum - src.prev
				src.prev = cum
			}
			slot.BusBusy = append(slot.BusBusy, delta)
		}
	} else {
		slot.BusBusy = nil
	}
	for i := range r.cur.Cells {
		r.totals[i].accumulate(r.cur.Cells[i])
		r.cur.Cells[i].zero()
	}
	r.done++
	r.cur.Index++
	r.cur.Start = now
}

// Epochs returns the retained completed epochs oldest-first. The slices
// alias recorder storage; callers must not mutate them.
func (r *Recorder) Epochs() []Epoch {
	if r == nil || r.count == 0 {
		return nil
	}
	out := make([]Epoch, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.head+i)%r.opts.MaxEpochs])
	}
	return out
}

// Summary is the recorder's portable roll-up: what a sweep job ships to
// the campaign service on its row's journal line. It is a pure
// function of the simulated run, so it is byte-identical under JSON
// marshalling at any worker count.
type Summary struct {
	EpochCycles uint64   `json:"epoch_cycles"`
	Channels    int      `json:"channels"`
	Banks       int      `json:"banks"`
	Epochs      int      `json:"epochs"`            // epochs ever completed
	Dropped     int      `json:"dropped,omitempty"` // evicted from the ring
	Rules       []string `json:"rules,omitempty"`   // rule names (shared across channels)
	Domains     []string `json:"domains,omitempty"` // per-channel domain labels (multi-tier only)
	Totals      []Cell   `json:"totals"`            // lifetime per-bank cells, channel-major
	Ring        []Epoch  `json:"ring"`              // retained epochs, oldest first
}

// Summary snapshots the recorder. Cell slices are copied, so the summary
// stays valid if the recorder keeps running.
func (r *Recorder) Summary() *Summary {
	if r == nil || r.banks == 0 {
		return nil
	}
	s := &Summary{
		EpochCycles: r.opts.EpochCycles,
		Channels:    r.channels,
		Banks:       r.banks,
		Epochs:      r.done,
		Dropped:     r.drop,
		Totals:      append([]Cell(nil), r.totals...),
	}
	if len(r.domains) > 0 {
		s.Domains = append([]string(nil), r.domains...)
	}
	// All channels run the same rule stack in one machine, so channel
	// 0's names label every channel's delta vector.
	for ch := range r.rules {
		if len(r.rules[ch].names) > 0 {
			s.Rules = r.rules[ch].names
			break
		}
	}
	for _, ep := range r.Epochs() {
		cp := ep
		cp.Cells = append([]Cell(nil), ep.Cells...)
		if ep.RuleWins != nil {
			cp.RuleWins = make([][]uint64, len(ep.RuleWins))
			for i, w := range ep.RuleWins {
				cp.RuleWins[i] = append([]uint64(nil), w...)
			}
		}
		if ep.BusBusy != nil {
			cp.BusBusy = append([]uint64(nil), ep.BusBusy...)
		}
		s.Ring = append(s.Ring, cp)
	}
	return s
}

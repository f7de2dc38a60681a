// Package core implements the paper's primary contribution: the
// Prefetch-Aware DRAM Controller's adaptive machinery. It measures each
// core's prefetch accuracy over fixed intervals (§4.1), exposes the
// criticality/urgency predicates Adaptive Prefetch Scheduling needs
// (§4.2), selects the dynamic drop threshold Adaptive Prefetch Dropping
// uses (§4.3, Table 6), and models the hardware storage cost (§4.4,
// Tables 1–2). On a multi-tier topology the accuracy meters are kept per
// (memory domain, core): a core's prefetches into a far pooled tier are
// judged against that tier's own stream, so APS promotion and APD drop
// thresholds act on tier-local estimates.
package core

import (
	"fmt"

	"padc/internal/telemetry"
	"padc/internal/telemetry/probe"
)

// IntervalCycles is the accuracy sampling interval: the paper measures
// every core's prefetch accuracy over 100K-cycle intervals (§4.1).
const IntervalCycles uint64 = 100_000

// Config holds the PADC knobs, taken as written: DefaultConfig holds the
// paper's evaluation settings (85% promotion threshold, the Table 6
// drop-threshold ladder). Any promotion threshold is valid; at 0 or below
// every measured accuracy is critical, above 1 none is.
//
// APS has no switch of its own: the controller's rule stack decides
// whether criticality is read at all, and a stack without the critical
// rule never asks.
type Config struct {
	PromotionThreshold float64
	DropLadder         []DropLevel

	// Mechanism toggles for ablations. In the full PADC both are on; APS
	// alone is EnableAPD=false; the §6.3.4 no-urgency ablation clears
	// EnableUrgency.
	EnableAPD     bool
	EnableUrgency bool
}

// DropLevel maps an accuracy band to an APD drop threshold.
type DropLevel struct {
	AccuracyBelow float64 // band upper bound (exclusive except the last)
	Cycles        uint64
}

// DefaultDropLadder returns Table 6: accuracy 0–10% drops at 100 cycles,
// 10–30% at 1 500, 30–70% at 50 000, 70–100% at 100 000.
func DefaultDropLadder() []DropLevel {
	return []DropLevel{
		{AccuracyBelow: 0.10, Cycles: 100},
		{AccuracyBelow: 0.30, Cycles: 1_500},
		{AccuracyBelow: 0.70, Cycles: 50_000},
		{AccuracyBelow: 1.01, Cycles: 100_000},
	}
}

// DefaultConfig returns the paper's full PADC configuration.
func DefaultConfig() Config {
	return Config{
		PromotionThreshold: 0.85,
		DropLadder:         DefaultDropLadder(),
		EnableAPD:          true,
		EnableUrgency:      true,
	}
}

// Validate reports a config the adaptive machinery cannot run: APD on
// with no drop-threshold levels.
func (c Config) Validate() error {
	if c.EnableAPD && len(c.DropLadder) == 0 {
		return fmt.Errorf("core: APD needs at least one DropLadder level")
	}
	return nil
}

// coreMeter is one (domain, core) accuracy state: the PSC/PUC counters of
// the current interval and the PAR computed from the previous one.
type coreMeter struct {
	psc uint64 // Prefetch Sent Counter
	puc uint64 // Prefetch Used Counter
	par float64
}

// PADC is the adaptive controller state shared by APS and APD across all
// memory controllers in the system. meters is indexed [domain][core]; a
// flat machine has exactly one domain and behaves like the paper's
// single-tier controller. msMeters (one per domain, allocated lazily by
// the first NoteMemSideSent) judge the memory-side prefetch stream: the
// controllers generate those prefetches themselves, so their accuracy is
// a property of the tier's demand stream, not of any core.
type PADC struct {
	cfg      Config
	domains  []string // domain names; len 1 on a flat machine
	meters   [][]coreMeter
	msMeters []coreMeter // per-domain aggregate memory-side meters (nil until used)

	probe *probe.Probe // receives promotion flips (nil when nothing observes)
}

// New builds single-domain (flat) PADC state for ncores cores.
func New(ncores int, cfg Config) *PADC { return NewTiered(nil, ncores, cfg) }

// NewTiered builds PADC state with one accuracy meter per (domain, core).
// A nil or empty domains slice means one unnamed flat domain.
func NewTiered(domains []string, ncores int, cfg Config) *PADC {
	if len(domains) == 0 {
		domains = []string{""}
	}
	p := &PADC{
		cfg:     cfg,
		domains: append([]string(nil), domains...),
		meters:  make([][]coreMeter, len(domains)),
	}
	for d := range p.meters {
		p.meters[d] = make([]coreMeter, ncores)
		for i := range p.meters[d] {
			p.meters[d][i].par = 1 // optimistic until the first interval elapses
		}
	}
	return p
}

// AttachProbe publishes promotion flips to pr (nil leaves them
// unpublished).
func (p *PADC) AttachProbe(pr *probe.Probe) { p.probe = pr }

// TrackMemSide arms the per-domain memory-side accuracy meters. Call
// before Instrument when the memory-side prefetch path is enabled; left
// unarmed, the memside meters cost nothing and register no gauges, so a
// memside-off machine's telemetry stays byte-identical.
func (p *PADC) TrackMemSide() {
	if p.msMeters != nil {
		return
	}
	p.msMeters = make([]coreMeter, len(p.meters))
	for d := range p.msMeters {
		p.msMeters[d].par = 1 // optimistic until the first interval elapses
	}
}

// Instrument registers each (domain, core) accuracy estimate as a gauge —
// "core<i>/acc_estimate" on a flat machine, "<domain>/core<i>/acc_estimate"
// per tier otherwise. A nil tel is a no-op.
func (p *PADC) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	for d := range p.meters {
		pre := ""
		if len(p.meters) > 1 {
			pre = p.domains[d] + "/"
		}
		for i := range p.meters[d] {
			m := &p.meters[d][i]
			tel.GaugeFunc(fmt.Sprintf("%score%d/acc_estimate", pre, i), func() float64 { return m.par })
		}
		if p.msMeters != nil {
			m := &p.msMeters[d]
			tel.GaugeFunc(pre+"memside/acc_estimate", func() float64 { return m.par })
		}
	}
}

// NoteMemSideSent increments the domain's memory-side PSC: the domain's
// controller admitted one of its own prefetches into the request buffer.
func (p *PADC) NoteMemSideSent(domain int) { p.msMeters[domain].psc++ }

// NoteMemSideUsed increments the domain's memory-side PUC: a demand hit
// a line a memory-side prefetch filled.
func (p *PADC) NoteMemSideUsed(domain int) { p.msMeters[domain].puc++ }

// MemSideDropThresholdIn returns the APD age limit for the domain's
// memory-side prefetches: the same Table 6 ladder the core-side streams
// use, driven by the tier's aggregate memory-side accuracy. ^uint64(0)
// when APD is off.
func (p *PADC) MemSideDropThresholdIn(domain int) uint64 {
	if !p.cfg.EnableAPD {
		return ^uint64(0)
	}
	return p.ladder(p.msMeters[domain].par)
}

// MemSideAllowIn reports whether the domain's memory-side path should
// keep generating candidates: its measured accuracy is not pinned in the
// ladder's bottom band. This is the generation-side gate; buffered
// prefetches additionally age against MemSideDropThresholdIn.
func (p *PADC) MemSideAllowIn(domain int) bool {
	if !p.cfg.EnableAPD {
		return true
	}
	return p.msMeters[domain].par >= p.cfg.DropLadder[0].AccuracyBelow
}

// NoteSent increments the (domain, core) PSC: a prefetch targeting that
// domain entered the memory request buffer.
func (p *PADC) NoteSent(domain, core int) { p.meters[domain][core].psc++ }

// NoteUsed increments the (domain, core) PUC: a prefetched line from that
// domain was hit by a demand, or a demand matched an in-buffer prefetch.
func (p *PADC) NoteUsed(domain, core int) { p.meters[domain][core].puc++ }

// EndInterval recomputes every meter's PAR from the interval's counters
// and resets them (§4.1), at cycle now. Meters that sent nothing keep
// their previous PAR. A meter whose PAR crossed the APS promotion
// threshold publishes a Promotion event, carrying the domain index in
// Chan on tiered machines and the historical -1 on flat ones.
func (p *PADC) EndInterval(now uint64) {
	tiered := len(p.meters) > 1
	for d := range p.meters {
		for i := range p.meters[d] {
			m := &p.meters[d][i]
			wasCritical := m.par >= p.cfg.PromotionThreshold
			if m.psc > 0 {
				m.par = float64(m.puc) / float64(m.psc)
				// PUC can briefly exceed PSC across interval boundaries (a
				// prefetch sent late in one interval is used in the next);
				// clamp like the paper's saturating PAR register would.
				if m.par > 1 {
					m.par = 1
				}
			}
			m.psc, m.puc = 0, 0
			if nowCritical := m.par >= p.cfg.PromotionThreshold; p.probe != nil && nowCritical != wasCritical {
				var promoted int16
				if nowCritical {
					promoted = 1
				}
				ch := int16(-1)
				if tiered {
					ch = int16(d)
				}
				p.probe.Publish(probe.Event{
					Kind: probe.Promotion, Cycle: now, A: uint64(m.par * 1e6), // new PAR in ppm
					Core: int16(i), Chan: ch, Bank: promoted,
				})
			}
		}
	}
	// The per-domain memory-side meters roll over on the same interval.
	for d := range p.msMeters {
		m := &p.msMeters[d]
		if m.psc > 0 {
			m.par = float64(m.puc) / float64(m.psc)
			if m.par > 1 {
				m.par = 1
			}
		}
		m.psc, m.puc = 0, 0
	}
}

// AccuracyIn returns the (domain, core) PAR from the last completed
// interval.
func (p *PADC) AccuracyIn(domain, core int) float64 { return p.meters[domain][core].par }

// PrefetchCriticalIn reports whether the core's prefetches into the
// domain are critical: measured tier-local accuracy meets the promotion
// threshold.
func (p *PADC) PrefetchCriticalIn(domain, core int) bool {
	return p.meters[domain][core].par >= p.cfg.PromotionThreshold
}

// PrefetchCritical implements memctrl.CoreState against domain 0.
func (p *PADC) PrefetchCritical(core int) bool { return p.PrefetchCriticalIn(0, core) }

// UrgencyEnabled implements memctrl.CoreState.
func (p *PADC) UrgencyEnabled() bool { return p.cfg.EnableUrgency }

// DropThresholdIn returns the APD age limit for the core's prefetches in
// the domain under its tier-local measured accuracy. It returns
// ^uint64(0) when APD is off.
func (p *PADC) DropThresholdIn(domain, core int) uint64 {
	if !p.cfg.EnableAPD {
		return ^uint64(0)
	}
	return p.ladder(p.meters[domain][core].par)
}

// ladder maps a measured accuracy onto the Table 6 drop threshold.
func (p *PADC) ladder(par float64) uint64 {
	for _, l := range p.cfg.DropLadder {
		if par < l.AccuracyBelow {
			return l.Cycles
		}
	}
	return p.cfg.DropLadder[len(p.cfg.DropLadder)-1].Cycles
}

// TierView is one domain's slice of the PADC: it satisfies
// memctrl.CoreState so each controller consults its own tier's accuracy
// estimates for APS criticality.
type TierView struct {
	p *PADC
	d int
}

// DomainView returns the CoreState view bound to domain d.
func (p *PADC) DomainView(d int) *TierView { return &TierView{p: p, d: d} }

// PrefetchCritical implements memctrl.CoreState for the bound domain.
func (v *TierView) PrefetchCritical(core int) bool { return v.p.PrefetchCriticalIn(v.d, core) }

// UrgencyEnabled implements memctrl.CoreState.
func (v *TierView) UrgencyEnabled() bool { return v.p.UrgencyEnabled() }

// String summarizes current per-core accuracy, for debugging output.
func (p *PADC) String() string {
	s := "PADC["
	for d := range p.meters {
		for i := range p.meters[d] {
			if d > 0 || i > 0 {
				s += " "
			}
			if len(p.meters) > 1 {
				s += fmt.Sprintf("%s/", p.domains[d])
			}
			s += fmt.Sprintf("c%d:%.0f%%", i, p.meters[d][i].par*100)
		}
	}
	return s + "]"
}

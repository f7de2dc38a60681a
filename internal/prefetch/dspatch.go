package prefetch

import "math/bits"

// RegionLines is the spatial region DSPatch learns patterns over: 64
// cache lines (4KB at 64B lines — one physical page), so one region's
// footprint is a single 64-bit word.
const RegionLines = 64

// DSPatchConfig sizes the dual-spatial-pattern prefetcher.
type DSPatchConfig struct {
	Pages      int // active-region accumulation buffer entries
	SPTEntries int // signature pattern table entries (power of two)
	// HighHeadroom is the bandwidth-headroom fraction (1 = bus fully
	// idle) at or above which the coverage-biased pattern is selected.
	HighHeadroom float64
	// CovPromote selects CovP regardless of headroom once its measured
	// bit accuracy reaches this fraction: an accurate coverage pattern
	// costs nothing extra.
	CovPromote float64
	// MinAccBits floors the accuracy-biased pattern: when repeated
	// AND-merges thin AccP below this many bits it is reseeded from the
	// latest observation instead of decaying to the empty pattern.
	MinAccBits int
}

// DefaultDSPatchConfig returns the defaults: a 64-region page buffer,
// a 256-entry signature table, and the bias flip at 60% headroom. The
// flip point sits above this machine's bus-saturation knee — sustained
// full-load runs bottom out near 52–55% headroom (bank timing, not the
// data bus, is the limiter), so a 50% threshold would never engage.
func DefaultDSPatchConfig() DSPatchConfig {
	return DSPatchConfig{Pages: 64, SPTEntries: 256, HighHeadroom: 0.6, CovPromote: 0.85, MinAccBits: 2}
}

// pageEntry accumulates one active region's access bitmap between its
// trigger access and its eviction from the page buffer, when the
// observation trains the signature table.
type pageEntry struct {
	valid    bool
	region   uint64
	sig      uint64
	trigOff  uint
	pattern  uint64 // absolute line-offset bitmap of accesses seen
	predCov  uint64 // absolute bitmap CovP predicted at trigger (0 = none)
	predAcc  uint64 // ditto for AccP
	lastUsed uint64
}

// sptEntry is one signature's dual pattern pair, anchored at the trigger
// offset (bit 0 = the trigger line).
type sptEntry struct {
	valid bool
	tag   uint64
	covP  uint64 // coverage-biased: OR of every observed pattern
	accP  uint64 // accuracy-biased: AND of recent observed patterns
}

// meter is a decaying hit/total pair measuring one pattern's bit
// accuracy: predicted bits that a demand later touched over predicted
// bits. Halving both on overflow keeps it a recent-history estimate.
type meter struct{ good, pred uint64 }

func (m *meter) add(good, pred uint64) {
	m.good += good
	m.pred += pred
	if m.pred >= 1<<20 {
		m.good >>= 1
		m.pred >>= 1
	}
}

func (m *meter) value() float64 {
	if m.pred == 0 {
		return 0
	}
	return float64(m.good) / float64(m.pred)
}

// DSPatch is a dual-spatial-pattern prefetcher (Bera et al., MICRO 2019):
// per-region access bitmaps train a signature table holding two bit
// patterns per signature — a coverage-biased pattern (CovP, the OR of
// every observed footprint) and an accuracy-biased one (AccP, the AND of
// recent footprints, rotated to the trigger) — and the trigger-time
// selector picks between them on measured DRAM bandwidth headroom:
// coverage when the bus is idle, accuracy under pressure.
type DSPatch struct {
	cfg     DSPatchConfig
	pages   []pageEntry
	pageIdx map[uint64]int // region -> pages index
	spt     []sptEntry
	sptMask uint64
	clock   uint64
	out     []uint64 // candidate buffer Observe returns

	headroom float64 // latest bandwidth-headroom sample (1 = idle)

	covMeter meter
	accMeter meter

	// Issued counts every candidate returned; CovPSelected/AccPSelected
	// count trigger accesses that emitted from each pattern (the
	// coverage/accuracy trade-off the abl-memside ablation reports).
	Issued       uint64
	CovPSelected uint64
	AccPSelected uint64
}

// NewDSPatch builds a DSPatch prefetcher; zero config fields fall back
// to the defaults. The headroom signal starts at 1 (idle bus), so a cold
// prefetcher is coverage-biased until the first sample arrives.
func NewDSPatch(cfg DSPatchConfig) *DSPatch {
	def := DefaultDSPatchConfig()
	if cfg.Pages <= 0 {
		cfg.Pages = def.Pages
	}
	if cfg.SPTEntries <= 0 {
		cfg.SPTEntries = def.SPTEntries
	}
	// Round the table up to a power of two so the signature mask is exact.
	n := 1
	for n < cfg.SPTEntries {
		n <<= 1
	}
	cfg.SPTEntries = n
	if cfg.HighHeadroom == 0 {
		cfg.HighHeadroom = def.HighHeadroom
	}
	if cfg.CovPromote == 0 {
		cfg.CovPromote = def.CovPromote
	}
	if cfg.MinAccBits == 0 {
		cfg.MinAccBits = def.MinAccBits
	}
	return &DSPatch{
		cfg:      cfg,
		pages:    make([]pageEntry, cfg.Pages),
		pageIdx:  make(map[uint64]int, cfg.Pages),
		spt:      make([]sptEntry, cfg.SPTEntries),
		sptMask:  uint64(cfg.SPTEntries - 1),
		out:      make([]uint64, 0, RegionLines),
		headroom: 1,
	}
}

// Name implements Prefetcher.
func (d *DSPatch) Name() string { return "dspatch" }

// SetBandwidthHeadroom feeds the selector its input: the fraction of
// recent DRAM bus cycles that were idle (1 = free machine, 0 = saturated
// bus). The simulator samples it from the per-channel bus-busy counters
// at accuracy-interval boundaries.
func (d *DSPatch) SetBandwidthHeadroom(h float64) {
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	d.headroom = h
}

// BandwidthHeadroom returns the latest headroom sample.
func (d *DSPatch) BandwidthHeadroom() float64 { return d.headroom }

// Meters returns the raw predicted-bit counts of the coverage-biased and
// accuracy-biased patterns (bits later touched, bits predicted), so bit
// accuracy can be pooled across engines.
func (d *DSPatch) Meters() (covGood, covPred, accGood, accPred uint64) {
	return d.covMeter.good, d.covMeter.pred, d.accMeter.good, d.accMeter.pred
}

// signature mixes the trigger PC and its in-region offset, the standard
// DSPatch trigger signature.
func (d *DSPatch) signature(pc uint64, off uint) uint64 {
	return hash64(pc<<6 | uint64(off))
}

// train folds an evicted region's observed footprint into its
// signature's dual patterns and scores the predictions made at trigger
// time against what the region actually touched.
func (d *DSPatch) train(p *pageEntry) {
	if !p.valid {
		return
	}
	if p.predCov != 0 {
		d.covMeter.add(uint64(bits.OnesCount64(p.predCov&p.pattern)), uint64(bits.OnesCount64(p.predCov)))
	}
	if p.predAcc != 0 {
		d.accMeter.add(uint64(bits.OnesCount64(p.predAcc&p.pattern)), uint64(bits.OnesCount64(p.predAcc)))
	}
	// Anchor the footprint at the trigger so patterns generalize across
	// regions entered at different offsets.
	obs := bits.RotateLeft64(p.pattern, -int(p.trigOff))
	e := &d.spt[p.sig&d.sptMask]
	if !e.valid || e.tag != p.sig {
		*e = sptEntry{valid: true, tag: p.sig, covP: obs, accP: obs}
		return
	}
	e.covP |= obs
	e.accP &= obs
	if bits.OnesCount64(e.accP) < d.cfg.MinAccBits {
		// The AND decayed below usefulness: reseed from the latest
		// footprint rather than predicting nothing forever.
		e.accP = obs
	}
}

// selectPattern picks the trigger-time prediction: the coverage-biased
// pattern when the bus has headroom (or has proven accurate anyway), the
// accuracy-biased one under pressure. Returns trigger-anchored patterns.
func (d *DSPatch) selectPattern(e *sptEntry) (sel uint64, fromCov bool) {
	useCov := d.headroom >= d.cfg.HighHeadroom || d.covMeter.value() >= d.cfg.CovPromote
	if useCov && e.covP != 0 {
		return e.covP, true
	}
	if e.accP != 0 {
		return e.accP, false
	}
	return e.covP, true
}

// Observe implements Prefetcher. Non-trigger accesses only accumulate
// the region footprint; the first access to a region (its trigger) looks
// up the signature table and emits the selected pattern's lines, bounded
// by budget.
func (d *DSPatch) Observe(ev AccessEvent, budget int) []uint64 {
	d.clock++
	region := ev.LineAddr / RegionLines
	off := uint(ev.LineAddr % RegionLines)

	if idx, ok := d.pageIdx[region]; ok {
		p := &d.pages[idx]
		p.pattern |= 1 << off
		p.lastUsed = d.clock
		return nil
	}

	// New region: evict the LRU accumulation entry, training the table
	// with its footprint, and allocate this region with off as trigger.
	victim := 0
	for i := range d.pages {
		if !d.pages[i].valid {
			victim = i
			break
		}
		if d.pages[i].lastUsed < d.pages[victim].lastUsed {
			victim = i
		}
	}
	if d.pages[victim].valid {
		d.train(&d.pages[victim])
		delete(d.pageIdx, d.pages[victim].region)
	}
	p := &d.pages[victim]
	*p = pageEntry{
		valid: true, region: region, trigOff: off,
		sig: d.signature(ev.PC, off), pattern: 1 << off, lastUsed: d.clock,
	}
	d.pageIdx[region] = victim

	e := &d.spt[p.sig&d.sptMask]
	if !e.valid || e.tag != p.sig {
		return nil // cold signature: learn first, predict next time
	}
	sel, fromCov := d.selectPattern(e)
	if sel == 0 {
		return nil
	}
	// De-anchor back to absolute offsets and record the prediction so
	// eviction can score it.
	abs := bits.RotateLeft64(sel, int(off))
	if fromCov {
		p.predCov = abs
	} else {
		p.predAcc = abs
	}
	if budget <= 0 {
		return nil
	}
	out := d.out[:0]
	base := region * RegionLines
	counted := false
	for rest := abs &^ (1 << off); rest != 0 && len(out) < budget; rest &= rest - 1 {
		i := uint(bits.TrailingZeros64(rest))
		out = append(out, base+uint64(i))
		counted = true
	}
	if counted {
		if fromCov {
			d.CovPSelected++
		} else {
			d.AccPSelected++
		}
		d.Issued += uint64(len(out))
	}
	d.out = out
	return out
}

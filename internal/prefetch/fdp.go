package prefetch

// FDP implements Feedback Directed Prefetching (Srinath et al., HPCA-13):
// at every sampling interval it inspects the prefetcher's measured
// accuracy, lateness and cache-pollution and moves the wrapped
// prefetcher's aggressiveness up or down a five-level ladder.
//
// PADC's APD is compared against FDP in the paper's §6.12: FDP avoids
// generating useless prefetches, while APD drops them after generation and
// therefore never sacrifices useful ones during ramp-up.
type FDP struct {
	inner Prefetcher
	level int // rung of fdpLevels

	// Interval counters, maintained by the simulator via the Count* hooks.
	sent     uint64
	useful   uint64
	late     uint64
	polluted uint64

	// Pollution filter: a small Bloom filter of demand lines evicted by
	// prefetch fills; a demand miss that hits the filter counts as
	// pollution.
	bloom []uint64
}

// fdpLevel is one rung of the aggressiveness ladder.
type fdpLevel struct {
	degree   int
	distance uint64
}

// The thresholds the paper tuned FDP to for its system: accuracy
// 90%/40%, lateness 1%, pollution 0.5%, a 4Kbit pollution filter, and a
// five-level aggressiveness ladder.
const (
	fdpAccHigh    = 0.90
	fdpAccLow     = 0.40
	fdpLateThresh = 0.01
	fdpPollThresh = 0.005
	fdpBloomBits  = 4096
)

var fdpLevels = [...]fdpLevel{
	{degree: 1, distance: 4},
	{degree: 1, distance: 8},
	{degree: 2, distance: 16},
	{degree: 4, distance: 32},
	{degree: 4, distance: 64},
}

// NewFDP wraps a throttleable prefetcher. The initial level is the middle
// of the ladder, per the FDP paper.
func NewFDP(inner Prefetcher) *FDP {
	f := &FDP{inner: inner, level: len(fdpLevels) / 2}
	f.bloom = make([]uint64, (fdpBloomBits+63)/64)
	f.apply()
	return f
}

// Name implements Prefetcher.
func (f *FDP) Name() string { return f.inner.Name() + "+fdp" }

// Observe implements Prefetcher.
func (f *FDP) Observe(ev AccessEvent, budget int) []uint64 { return f.inner.Observe(ev, budget) }

func (f *FDP) apply() {
	if t, ok := f.inner.(Throttleable); ok {
		l := fdpLevels[f.level]
		t.SetAggressiveness(l.degree, l.distance)
	}
}

// CountSent, CountUseful and CountLate are the per-interval feedback hooks
// the simulator calls as prefetches flow through the memory system. A
// "late" prefetch is one a demand caught while it was still in flight.
func (f *FDP) CountSent()   { f.sent++ }
func (f *FDP) CountUseful() { f.useful++ }
func (f *FDP) CountLate()   { f.late++ }

func (f *FDP) bloomIdx(lineAddr uint64) (word int, bit uint64) {
	h := hash64(lineAddr) % uint64(len(f.bloom)*64)
	return int(h / 64), uint64(1) << (h % 64)
}

// NoteEviction records that a prefetch fill evicted the given demand line.
func (f *FDP) NoteEviction(victimLine uint64) {
	w, b := f.bloomIdx(victimLine)
	f.bloom[w] |= b
}

// NoteDemandMiss checks a demand miss against the pollution filter.
func (f *FDP) NoteDemandMiss(lineAddr uint64) {
	w, b := f.bloomIdx(lineAddr)
	if f.bloom[w]&b != 0 {
		f.polluted++
		f.bloom[w] &^= b
	}
}

// EndInterval applies the FDP decision rules for the elapsed interval and
// resets the counters. demandMisses scales the pollution ratio.
func (f *FDP) EndInterval(demandMisses uint64) {
	if f.sent == 0 {
		return
	}
	acc := float64(f.useful) / float64(f.sent)
	lateness := float64(f.late) / float64(f.sent)
	pollution := 0.0
	if demandMisses > 0 {
		pollution = float64(f.polluted) / float64(demandMisses)
	}

	dir := 0
	switch {
	case pollution > fdpPollThresh:
		dir = -1
	case acc >= fdpAccHigh:
		if lateness > fdpLateThresh {
			dir = 1
		}
	case acc >= fdpAccLow:
		if lateness > fdpLateThresh {
			dir = -1 // mid accuracy and late: throttle to improve timeliness
		}
	default:
		dir = -1
	}
	next := f.level + dir
	if next >= 0 && next < len(fdpLevels) && next != f.level {
		f.level = next
		f.apply()
	}
	f.sent, f.useful, f.late, f.polluted = 0, 0, 0, 0
}

// SetAggressiveness implements Throttleable so FDP composes under other
// wrappers, though normally FDP is the outermost controller.
func (f *FDP) SetAggressiveness(degree int, distance uint64) {
	if t, ok := f.inner.(Throttleable); ok {
		t.SetAggressiveness(degree, distance)
	}
}

// Package prefetch implements the hardware prefetchers the PADC paper
// evaluates — the IBM POWER4/5-style stream prefetcher used for the main
// results, plus PC-based stride, CZone/Delta-Correlation (C/DC) and Markov
// prefetchers (§6.11) — and the two prefetch-control mechanisms PADC is
// compared against: Dynamic Data Prefetch Filtering (DDPF) and Feedback
// Directed Prefetching (FDP) (§6.12).
//
// A prefetcher observes every last-level-cache access of its core and
// returns candidate prefetch line addresses; the simulator deduplicates
// them against the cache and MSHRs and enters survivors into the memory
// request buffer.
package prefetch

// AccessEvent describes one last-level cache access as seen by a
// prefetcher.
type AccessEvent struct {
	LineAddr uint64
	PC       uint64
	Miss     bool
	Cycle    uint64
}

// Prefetcher is the common interface of all prefetch engines. Observe may
// return zero or more candidate prefetch line addresses for the access —
// never more than budget, which is how many prefetches the memory system
// can accept right now (free MSHR and request-buffer slots). Stateful
// prefetchers use the budget as backpressure: the stream prefetcher does
// not advance its prefetch pointer past lines it could not emit, so a full
// memory system makes prefetches late rather than silently skipped.
//
// The returned slice belongs to the prefetcher and is valid only until
// the next Observe call: engines emit into one reused buffer so the
// steady-state observe path allocates nothing. Callers that keep
// candidates across calls must copy them; wrappers may filter the slice
// in place (DDPF does).
type Prefetcher interface {
	Name() string
	Observe(ev AccessEvent, budget int) []uint64
}

// Throttleable is implemented by prefetchers whose aggressiveness FDP can
// adjust at interval boundaries.
type Throttleable interface {
	SetAggressiveness(degree int, distance uint64)
}

// Nop is a prefetcher that never prefetches (the paper's "no prefetching"
// baseline).
type Nop struct{}

// Name implements Prefetcher.
func (Nop) Name() string { return "none" }

// Observe implements Prefetcher.
func (Nop) Observe(AccessEvent, int) []uint64 { return nil }

// hash64 is SplitMix64's finalizer; used wherever a prefetcher needs a
// cheap table index.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

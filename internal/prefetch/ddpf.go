package prefetch

// DDPF implements Dynamic Data Prefetch Filtering (Zhuang & Lee): a
// two-level, gshare-style table of saturating counters records whether
// prefetches generated in a similar context were useful in the past, and
// filters new candidates predicted useless. The simulator feeds outcomes
// back through Feedback.
//
// The paper's §6.12 finding is that DDPF cuts traffic more than APD but
// also kills useful prefetches, so it trades performance for bandwidth.
type DDPF struct {
	inner    Prefetcher
	counters []uint8

	// Stats.
	Filtered uint64
}

// The paper's tuned filter: a 4K-entry table of 2-bit counters that
// passes a prefetch when its counter is at least 3.
const (
	ddpfEntries   = 4096
	ddpfThreshold = 3
	ddpfMaxCtr    = 3
)

// NewDDPF wraps inner with a DDPF filter.
func NewDDPF(inner Prefetcher) *DDPF {
	d := &DDPF{inner: inner, counters: make([]uint8, ddpfEntries)}
	// Start fully confident so cold prefetches flow until proven useless.
	for i := range d.counters {
		d.counters[i] = ddpfMaxCtr
	}
	return d
}

// Name implements Prefetcher.
func (d *DDPF) Name() string { return d.inner.Name() + "+ddpf" }

// index hashes the prefetch target into the counter table. The hardware
// proposal indexes by load PC xor branch history; hashing the line address
// is the analog available at the prefetcher, and keeps prediction and
// training consistent for a given target.
func (d *DDPF) index(lineAddr uint64) uint64 {
	return hash64(lineAddr) % uint64(len(d.counters))
}

// Observe implements Prefetcher, dropping candidates whose history counter
// is below the threshold.
func (d *DDPF) Observe(ev AccessEvent, budget int) []uint64 {
	cands := d.inner.Observe(ev, budget)
	if len(cands) == 0 {
		return cands
	}
	out := cands[:0]
	for _, a := range cands {
		if d.counters[d.index(a)] >= ddpfThreshold {
			out = append(out, a)
		} else {
			d.Filtered++
		}
	}
	return out
}

// Feedback trains the filter with the outcome of a serviced prefetch:
// useful prefetches strengthen their context, useless ones weaken it. The
// global history register folds in recent outcomes, giving the gshare-like
// second level.
func (d *DDPF) Feedback(lineAddr uint64, useful bool) {
	idx := d.index(lineAddr)
	if useful {
		if d.counters[idx] < ddpfMaxCtr {
			d.counters[idx]++
		}
	} else if d.counters[idx] > 0 {
		d.counters[idx]--
	}
}

// SetAggressiveness forwards FDP-style throttling to the wrapped
// prefetcher when it supports it.
func (d *DDPF) SetAggressiveness(degree int, distance uint64) {
	if t, ok := d.inner.(Throttleable); ok {
		t.SetAggressiveness(degree, distance)
	}
}

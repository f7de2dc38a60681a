package prefetch

// MarkovConfig sizes the Markov prefetcher (Joseph & Grunwald, ISCA-24).
// The table records, per miss address, the miss addresses that followed
// it; a repeat miss prefetches the recorded successors.
type MarkovConfig struct {
	TableEntries int // direct-mapped correlation table entries
	Successors   int // successors remembered (and prefetched) per address
}

// DefaultMarkovConfig returns a 4096-entry, 2-successor table.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{TableEntries: 4096, Successors: 2}
}

type markovEntry struct {
	tag   uint64
	succ  []uint64
	valid bool
}

// Markov is a correlation prefetcher over the miss-address stream. It
// exploits temporal rather than spatial correlation, so unlike the other
// prefetchers it can cover pointer chasing — but only for recurring miss
// sequences.
type Markov struct {
	cfg      MarkovConfig
	table    []markovEntry
	lastMiss uint64
	haveLast bool
	out      []uint64 // candidate buffer Observe returns
}

// NewMarkov builds a Markov prefetcher; zero fields fall back to defaults.
func NewMarkov(cfg MarkovConfig) *Markov {
	def := DefaultMarkovConfig()
	if cfg.TableEntries == 0 {
		cfg.TableEntries = def.TableEntries
	}
	if cfg.Successors == 0 {
		cfg.Successors = def.Successors
	}
	m := &Markov{cfg: cfg, table: make([]markovEntry, cfg.TableEntries), out: make([]uint64, 0, cfg.Successors)}
	// Each entry's successor list is a fixed window of one slab, reused
	// when the entry is replaced.
	n := cfg.Successors
	slab := make([]uint64, cfg.TableEntries*n)
	for i := range m.table {
		m.table[i].succ = slab[i*n : i*n : (i+1)*n]
	}
	return m
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "markov" }

func (m *Markov) slot(addr uint64) *markovEntry {
	return &m.table[hash64(addr)%uint64(len(m.table))]
}

// Observe implements Prefetcher. Both training and prediction operate on
// the miss stream only.
func (m *Markov) Observe(ev AccessEvent, budget int) []uint64 {
	if !ev.Miss {
		return nil
	}
	if m.haveLast {
		e := m.slot(m.lastMiss)
		if !e.valid || e.tag != m.lastMiss {
			*e = markovEntry{tag: m.lastMiss, valid: true, succ: e.succ[:0]}
		}
		seen := false
		for _, s := range e.succ {
			if s == ev.LineAddr {
				seen = true
				break
			}
		}
		if !seen {
			if len(e.succ) == m.cfg.Successors {
				// MRU insertion: shift out the oldest successor.
				copy(e.succ, e.succ[1:])
				e.succ = e.succ[:len(e.succ)-1]
			}
			e.succ = append(e.succ, ev.LineAddr)
		}
	}
	m.lastMiss, m.haveLast = ev.LineAddr, true

	e := m.slot(ev.LineAddr)
	if !e.valid || e.tag != ev.LineAddr || len(e.succ) == 0 {
		return nil
	}
	n := len(e.succ)
	if budget < n {
		n = budget
	}
	if n <= 0 {
		return nil
	}
	// Copy out: wrappers such as DDPF filter the returned slice in place.
	m.out = append(m.out[:0], e.succ[:n]...)
	return m.out
}

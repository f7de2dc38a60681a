package prefetch

// StrideConfig sizes the PC-based stride prefetcher (Baer & Chen).
type StrideConfig struct {
	TableEntries int
	Degree       int
	MinConfirm   int
}

// DefaultStrideConfig returns a 256-entry, degree-4 stride prefetcher.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{TableEntries: 256, Degree: 4, MinConfirm: 2}
}

type strideEntry struct {
	pcTag    uint64
	lastAddr uint64
	stride   int64
	confirms int
	valid    bool
}

// Stride detects constant-stride sequences per load PC and prefetches
// along the stride once the pattern has repeated MinConfirm times.
type Stride struct {
	cfg   StrideConfig
	table []strideEntry
	out   []uint64 // candidate buffer Observe returns
}

// NewStride builds a stride prefetcher; zero fields fall back to defaults.
func NewStride(cfg StrideConfig) *Stride {
	def := DefaultStrideConfig()
	if cfg.TableEntries == 0 {
		cfg.TableEntries = def.TableEntries
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	if cfg.MinConfirm == 0 {
		cfg.MinConfirm = def.MinConfirm
	}
	return &Stride{cfg: cfg, table: make([]strideEntry, cfg.TableEntries), out: make([]uint64, 0, cfg.Degree)}
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "stride" }

// SetAggressiveness implements Throttleable; distance is ignored since the
// stride table has no lookahead window.
func (s *Stride) SetAggressiveness(degree int, _ uint64) {
	if degree > 0 {
		s.cfg.Degree = degree
	}
}

// Observe implements Prefetcher.
func (s *Stride) Observe(ev AccessEvent, budget int) []uint64 {
	idx := hash64(ev.PC) % uint64(len(s.table))
	e := &s.table[idx]
	if !e.valid || e.pcTag != ev.PC {
		*e = strideEntry{pcTag: ev.PC, lastAddr: ev.LineAddr, valid: true}
		return nil
	}
	stride := int64(ev.LineAddr) - int64(e.lastAddr)
	e.lastAddr = ev.LineAddr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confirms < s.cfg.MinConfirm {
			e.confirms++
		}
	} else {
		e.stride = stride
		e.confirms = 1
		return nil
	}
	if e.confirms < s.cfg.MinConfirm {
		return nil
	}
	n := s.cfg.Degree
	if budget < n {
		n = budget
	}
	out := s.out[:0]
	next := int64(ev.LineAddr)
	for k := 0; k < n; k++ {
		next += stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	s.out = out
	return out
}

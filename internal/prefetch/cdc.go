package prefetch

// CDCConfig sizes the CZone/Delta-Correlation prefetcher (Nesbit et al.,
// PACT-13). The address space is statically partitioned into CZones;
// within a zone, the prefetcher keeps a small delta history and replays
// the deltas that followed the most recent earlier occurrence of the
// current delta pair.
type CDCConfig struct {
	Zones        int    // tracked zones (LRU replaced)
	CZoneLines   uint64 // zone size in cache lines (1024 lines = 64KB)
	HistoryDepth int    // deltas of history kept per zone
	Degree       int
}

// DefaultCDCConfig returns a 64-zone, 64KB-CZone, degree-4 configuration.
func DefaultCDCConfig() CDCConfig {
	return CDCConfig{Zones: 64, CZoneLines: 1024, HistoryDepth: 16, Degree: 4}
}

type cdcZone struct {
	zoneID   uint64
	lastAddr uint64
	deltas   []int64
	valid    bool
	lastUsed uint64
}

// CDC is the CZone/Delta-Correlation prefetcher.
type CDC struct {
	cfg   CDCConfig
	zones []cdcZone
	clock uint64
	out   []uint64 // candidate buffer Observe returns
}

// NewCDC builds a C/DC prefetcher; zero fields fall back to defaults.
func NewCDC(cfg CDCConfig) *CDC {
	def := DefaultCDCConfig()
	if cfg.Zones == 0 {
		cfg.Zones = def.Zones
	}
	if cfg.CZoneLines == 0 {
		cfg.CZoneLines = def.CZoneLines
	}
	if cfg.HistoryDepth == 0 {
		cfg.HistoryDepth = def.HistoryDepth
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	c := &CDC{cfg: cfg, zones: make([]cdcZone, cfg.Zones), out: make([]uint64, 0, cfg.Degree)}
	// Each zone's delta history is a fixed window of one slab; a replaced
	// zone reuses its predecessor's window.
	hd := cfg.HistoryDepth
	slab := make([]int64, cfg.Zones*hd)
	for i := range c.zones {
		c.zones[i].deltas = slab[i*hd : i*hd : (i+1)*hd]
	}
	return c
}

// Name implements Prefetcher.
func (c *CDC) Name() string { return "cdc" }

// SetAggressiveness implements Throttleable.
func (c *CDC) SetAggressiveness(degree int, _ uint64) {
	if degree > 0 {
		c.cfg.Degree = degree
	}
}

func (c *CDC) zone(id uint64) *cdcZone {
	c.clock++
	victim := 0
	for i := range c.zones {
		z := &c.zones[i]
		if z.valid && z.zoneID == id {
			z.lastUsed = c.clock
			return z
		}
		if !c.zones[victim].valid {
			continue
		}
		if !z.valid || z.lastUsed < c.zones[victim].lastUsed {
			victim = i
		}
	}
	c.zones[victim] = cdcZone{
		zoneID:   id,
		valid:    true,
		lastUsed: c.clock,
		deltas:   c.zones[victim].deltas[:0],
	}
	return &c.zones[victim]
}

// Observe implements Prefetcher. Only misses train and trigger C/DC, as
// the delta stream is defined over miss addresses.
func (c *CDC) Observe(ev AccessEvent, budget int) []uint64 {
	if !ev.Miss {
		return nil
	}
	z := c.zone(ev.LineAddr / c.cfg.CZoneLines)
	if z.lastAddr == 0 && len(z.deltas) == 0 {
		z.lastAddr = ev.LineAddr
		return nil
	}
	d := int64(ev.LineAddr) - int64(z.lastAddr)
	z.lastAddr = ev.LineAddr
	if d == 0 {
		return nil
	}
	if len(z.deltas) == c.cfg.HistoryDepth {
		copy(z.deltas, z.deltas[1:])
		z.deltas = z.deltas[:len(z.deltas)-1]
	}
	z.deltas = append(z.deltas, d)

	n := len(z.deltas)
	if n < 3 {
		return nil
	}
	// Correlate on the newest delta pair: find its most recent earlier
	// occurrence and replay the deltas that followed it.
	d1, d2 := z.deltas[n-2], z.deltas[n-1]
	match := -1
	for i := n - 3; i >= 1; i-- {
		if z.deltas[i-1] == d1 && z.deltas[i] == d2 {
			match = i
			break
		}
	}
	if match < 0 {
		return nil
	}
	deg := c.cfg.Degree
	if budget < deg {
		deg = budget
	}
	if deg <= 0 {
		return nil
	}
	out := c.out[:0]
	next := int64(ev.LineAddr)
	for i := match + 1; i < n && len(out) < deg; i++ {
		next += z.deltas[i]
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	// If the replayed tail is shorter than the degree, wrap around the
	// matched pattern to keep issuing (the pattern is assumed periodic).
	for i := match - 1; len(out) < deg && i+2 < n; i++ {
		next += z.deltas[i+2]
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	c.out = out
	return out
}

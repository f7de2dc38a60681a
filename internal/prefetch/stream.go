package prefetch

// StreamConfig sizes the stream prefetcher. Defaults follow the paper's
// baseline (Table 3): 32 streams, prefetch degree 4, prefetch distance
// (lookahead cap) 64 lines; training confirms a direction after two nearby
// accesses within 16 lines of the allocation address.
type StreamConfig struct {
	Streams   int
	Degree    int    // prefetches launched per in-stream access
	Distance  uint64 // max lines the prefetch pointer may run ahead of demand
	TrainDist uint64 // accesses this close to the allocation address train it
	TrainHits int    // confirmations needed to start prefetching
}

// DefaultStreamConfig returns the paper's baseline stream prefetcher.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Streams: 32, Degree: 4, Distance: 64, TrainDist: 16, TrainHits: 2}
}

type streamState int

const (
	streamInvalid streamState = iota
	streamTraining
	streamMonitoring
)

type streamEntry struct {
	state    streamState
	start    int64 // allocation address S (line address)
	dir      int64 // +1 ascending, -1 descending
	confirms int
	last     int64 // most advanced in-stream demand seen
	next     int64 // next line the prefetcher will request
	lastUsed uint64
}

// Stream is an aggressive POWER4/5-style stream prefetcher. A new L2 miss
// not covered by an existing stream allocates an entry; nearby accesses
// establish a direction; once confirmed, every in-stream access launches
// up to Degree prefetches, ramping the prefetch pointer ahead of demand
// until it runs the full Distance lookahead ahead — so long streams get
// deep, accurate prefetching while dying streams strand at most Distance
// useless lines.
type Stream struct {
	cfg     StreamConfig
	entries []streamEntry
	clock   uint64
	out     []uint64 // candidate buffer Observe returns

	// Issued counts every candidate returned; callers use it to reason
	// about dedup rates.
	Issued uint64
}

// NewStream builds a stream prefetcher with cfg; zero fields fall back to
// the defaults.
func NewStream(cfg StreamConfig) *Stream {
	def := DefaultStreamConfig()
	if cfg.Streams == 0 {
		cfg.Streams = def.Streams
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	if cfg.Distance == 0 {
		cfg.Distance = def.Distance
	}
	if cfg.TrainDist == 0 {
		cfg.TrainDist = def.TrainDist
	}
	if cfg.TrainHits == 0 {
		cfg.TrainHits = def.TrainHits
	}
	return &Stream{cfg: cfg, entries: make([]streamEntry, cfg.Streams), out: make([]uint64, 0, cfg.Degree)}
}

// Name implements Prefetcher.
func (s *Stream) Name() string { return "stream" }

// SetAggressiveness implements Throttleable for FDP.
func (s *Stream) SetAggressiveness(degree int, distance uint64) {
	if degree > 0 {
		s.cfg.Degree = degree
	}
	if distance > 0 {
		s.cfg.Distance = distance
	}
}

// inStream reports whether a continues e's monitored stream: at most
// Distance behind the newest demand, and not beyond the prefetch pointer
// plus a small jump allowance.
func (e *streamEntry) inStream(a int64, dist int64) bool {
	behind := (e.last - a) * e.dir  // positive when a trails the stream
	forward := (a - e.last) * e.dir // positive when a advances the stream
	return behind <= dist && forward <= dist
}

// emit launches up to Degree prefetches (and never more than budget)
// without letting the prefetch pointer run more than Distance beyond the
// newest demand. The pointer only advances over emitted lines, so memory
// system backpressure delays prefetches instead of skipping them.
func (s *Stream) emit(e *streamEntry, budget int) []uint64 {
	n := s.cfg.Degree
	if budget < n {
		n = budget
	}
	if n <= 0 {
		return nil
	}
	out := s.out[:0]
	for k := 0; k < n; k++ {
		if (e.next-e.last)*e.dir > int64(s.cfg.Distance) || e.next < 0 {
			break
		}
		out = append(out, uint64(e.next))
		e.next += e.dir
	}
	s.out = out
	s.Issued += uint64(len(out))
	return out
}

// Observe implements Prefetcher.
func (s *Stream) Observe(ev AccessEvent, budget int) []uint64 {
	s.clock++
	a := int64(ev.LineAddr)

	// 1. An in-stream access advances the stream and launches the next
	// prefetch batch.
	for i := range s.entries {
		e := &s.entries[i]
		if e.state != streamMonitoring || !e.inStream(a, int64(s.cfg.Distance)) {
			continue
		}
		e.lastUsed = s.clock
		if (a-e.last)*e.dir > 0 {
			e.last = a
		}
		if (a-e.next)*e.dir >= 0 {
			// Demand overran the prefetcher (it was throttled or just
			// promoted); restart just ahead of demand.
			e.next = a + e.dir
		}
		return s.emit(e, budget)
	}

	// 2. Train an allocated entry whose start is close by.
	for i := range s.entries {
		e := &s.entries[i]
		if e.state != streamTraining {
			continue
		}
		d := a - e.start
		if d == 0 || d > int64(s.cfg.TrainDist) || d < -int64(s.cfg.TrainDist) {
			continue
		}
		e.lastUsed = s.clock
		if d > 0 {
			e.dir = 1
		} else {
			e.dir = -1
		}
		e.confirms++
		if e.confirms < s.cfg.TrainHits {
			return nil
		}
		e.state = streamMonitoring
		e.last = a
		e.next = a + e.dir
		return s.emit(e, budget)
	}

	// 3. A miss not belonging to any stream allocates a new entry,
	// replacing the least recently used one.
	if !ev.Miss {
		return nil
	}
	victim := 0
	for i := range s.entries {
		if s.entries[i].state == streamInvalid {
			victim = i
			break
		}
		if s.entries[i].lastUsed < s.entries[victim].lastUsed {
			victim = i
		}
	}
	s.entries[victim] = streamEntry{state: streamTraining, start: a, lastUsed: s.clock}
	return nil
}

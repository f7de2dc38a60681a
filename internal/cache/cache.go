// Package cache implements the set-associative caches the simulated cores
// use: true-LRU replacement, a prefetch (P) bit per line as the PADC paper
// requires for accuracy measurement, and per-line fill metadata used for
// the row-buffer-hit-rate-for-useful-requests (RBHU) statistic.
package cache

import (
	"fmt"
	"math/bits"
)

// Line is one cache line's bookkeeping.
type line struct {
	tag      uint64
	valid    bool
	prefetch bool // P bit: filled by a prefetch, not yet touched by a demand
	fillHit  bool // the DRAM access that filled it was a row hit
	marked   bool // owner-defined tag set by Mark, cleared with the P bit
	lru      uint64
}

// Config sizes a cache.
type Config struct {
	Bytes     uint64 // total capacity
	Ways      int
	LineBytes uint64
	HitCycles uint64
}

// Validate reports a descriptive error for impossible cache shapes.
func (c Config) Validate() error {
	switch {
	case c.Bytes == 0 || c.LineBytes == 0:
		return fmt.Errorf("cache: capacity (%d) and line size (%d) must be nonzero", c.Bytes, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	case c.Bytes%(c.LineBytes*uint64(c.Ways)) != 0:
		return fmt.Errorf("cache: %dB/%d-way/%dB-line does not divide into whole sets", c.Bytes, c.Ways, c.LineBytes)
	}
	sets := c.Bytes / (c.LineBytes * uint64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Lines returns the number of lines the cache holds.
func (c Config) Lines() uint64 { return c.Bytes / c.LineBytes }

// Cache is a single set-associative cache indexed by line address
// (byte address >> log2 line size).
type Cache struct {
	cfg      Config
	sets     [][]line
	tagShift uint
	setMask  uint64
	tick     uint64

	// Stats.
	Accesses    uint64
	Misses      uint64
	PrefHits    uint64 // demand hits that consumed a prefetched line
	PrefFills   uint64
	EvictUnused uint64 // prefetched lines evicted without a demand touch
}

// New builds a cache; it panics only on a config that Validate rejects,
// so callers should validate configs that come from user input first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Bytes / (cfg.LineBytes * uint64(cfg.Ways))
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, nsets),
		tagShift: uint(bits.Len64(nsets - 1)),
		setMask:  nsets - 1,
	}
	backing := make([]line, nsets*uint64(cfg.Ways))
	for i := range c.sets {
		c.sets[i] = backing[uint64(i)*uint64(cfg.Ways) : (uint64(i)+1)*uint64(cfg.Ways)]
	}
	return c
}

// Config returns the geometry this cache was built with.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(lineAddr uint64) []line { return c.sets[lineAddr&c.setMask] }

// HitInfo describes what a demand access found.
type HitInfo struct {
	Hit         bool
	WasPrefetch bool // line had its P bit set (first demand use of a prefetch)
	FillRowHit  bool // the fill that brought it in was a DRAM row hit
	Marked      bool // line carried its owner's Mark
}

// Access performs a demand lookup for lineAddr, updating LRU and clearing
// the P bit on a hit (the PADC accuracy counters are the caller's job).
// A hit that consumes the P bit consumes the line's mark with it.
func (c *Cache) Access(lineAddr uint64) HitInfo {
	c.tick++
	c.Accesses++
	tag := lineAddr >> c.tagShift
	s := c.set(lineAddr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lru = c.tick
			info := HitInfo{Hit: true, WasPrefetch: s[i].prefetch, FillRowHit: s[i].fillHit, Marked: s[i].marked}
			if s[i].prefetch {
				s[i].prefetch = false
				s[i].marked = false
				c.PrefHits++
			}
			return info
		}
	}
	c.Misses++
	return HitInfo{}
}

// Contains reports whether lineAddr is present without touching LRU or
// the P bit (used by prefetchers to avoid redundant prefetches).
func (c *Cache) Contains(lineAddr uint64) bool {
	tag := lineAddr >> c.tagShift
	s := c.set(lineAddr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return true
		}
	}
	return false
}

// Eviction describes the line a Fill displaced, so callers can account
// pollution (FDP) and train prefetch filters (DDPF).
type Eviction struct {
	Valid       bool
	LineAddr    uint64
	WasPrefetch bool // evicted line still carried its P bit (unused prefetch)
	Marked      bool // evicted line still carried its owner's Mark
}

// Fill inserts lineAddr, evicting LRU. prefetch marks the line's P bit;
// fillRowHit records whether the DRAM access that produced the line was a
// row hit (consumed later by the RBHU statistic).
func (c *Cache) Fill(lineAddr uint64, prefetch, fillRowHit bool) Eviction {
	c.tick++
	tag := lineAddr >> c.tagShift
	s := c.set(lineAddr)
	victim := -1
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			// Refill of a present line (e.g. a racing demand already filled
			// it): keep the stronger "demand" classification.
			s[i].prefetch = s[i].prefetch && prefetch
			s[i].lru = c.tick
			return Eviction{}
		}
		if victim < 0 && !s[i].valid {
			victim = i
		}
	}
	var ev Eviction
	if victim < 0 {
		victim = 0
		for i := 1; i < len(s); i++ {
			if s[i].lru < s[victim].lru {
				victim = i
			}
		}
		if s[victim].prefetch {
			c.EvictUnused++
		}
		ev = Eviction{
			Valid:       true,
			LineAddr:    s[victim].tag<<c.tagShift | lineAddr&c.setMask,
			WasPrefetch: s[victim].prefetch,
			Marked:      s[victim].marked,
		}
	}
	s[victim] = line{tag: tag, valid: true, prefetch: prefetch, fillHit: fillRowHit, lru: c.tick}
	if prefetch {
		c.PrefFills++
	}
	return ev
}

// Mark tags a present lineAddr with the owner's flag, which the line
// keeps until a demand hit consumes its P bit (HitInfo.Marked) or it is
// evicted (Eviction.Marked). The simulator marks memory-side prefetch
// fills this way. It is a no-op if the line is absent.
func (c *Cache) Mark(lineAddr uint64) {
	tag := lineAddr >> c.tagShift
	s := c.set(lineAddr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].marked = true
			return
		}
	}
}

// Invalidate drops lineAddr if present. It returns whether the line was
// present and still carried its P bit (an unused prefetch).
func (c *Cache) Invalidate(lineAddr uint64) (present, unusedPrefetch bool) {
	tag := lineAddr >> c.tagShift
	s := c.set(lineAddr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			present, unusedPrefetch = true, s[i].prefetch
			s[i] = line{}
			return
		}
	}
	return
}

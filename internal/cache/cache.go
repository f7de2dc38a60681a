// Package cache implements the set-associative caches the simulated cores
// use: true-LRU replacement, a prefetch (P) bit per line as the PADC paper
// requires for accuracy measurement, and per-line fill metadata used for
// the row-buffer-hit-rate-for-useful-requests (RBHU) statistic.
//
// A cache keeps flat arrays, not a struct per line. One array of words
// holds, per set, the set's keys side by side and then its LRU stamps, so
// a set's tag scan reads one host cache line at eight ways. A key is the
// line's tag with the valid bit folded in (tag<<1 | 1; zero is an invalid
// way), so a cache of one set, whose tag is the whole line address, tells
// line addresses apart only below 2^63. A second array holds a byte of
// flags per way: the P bit, the fill's row-hit bit and the owner's mark.
package cache

import (
	"fmt"
	"math/bits"
)

// The per-way flag bits.
const (
	flagPrefetch uint8 = 1 << iota // P bit: filled by a prefetch, not yet touched by a demand
	flagFillHit                    // the DRAM access that filled it was a row hit
	flagMarked                     // owner-defined tag set by Mark, cleared with the P bit
)

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
	// words holds set i's keys at [2*ways*i, 2*ways*i+ways) and their LRU
	// stamps in the ways words after them.
	words []uint64
	// flags holds set i's per-way flag bytes at [ways*i, ways*i+ways).
	flags    []uint8
	ways     int
	tagShift uint
	setMask  uint64
	// tick is the LRU clock. Replacement compares only the order of the
	// values it hands out, so a miss that bumps it changes no decision.
	tick uint64
}

// New builds a cache; it panics only on a config that Validate rejects,
// so callers should validate configs that come from user input first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Bytes / (cfg.LineBytes * uint64(cfg.Ways))
	return &Cache{
		words:    make([]uint64, 2*nsets*uint64(cfg.Ways)),
		flags:    make([]uint8, nsets*uint64(cfg.Ways)),
		ways:     cfg.Ways,
		tagShift: uint(bits.Len64(nsets - 1)),
		setMask:  nsets - 1,
	}
}

// key is lineAddr's tag with the valid bit set.
func (c *Cache) key(lineAddr uint64) uint64 { return lineAddr>>c.tagShift<<1 | 1 }

// set returns the index of lineAddr's set's first way in flags, and the
// set's keys.
func (c *Cache) set(lineAddr uint64) (base int, keys []uint64) {
	base = int(lineAddr&c.setMask) * c.ways
	return base, c.words[2*base : 2*base+c.ways : 2*base+c.ways]
}

// lru returns the LRU stamps of the set whose first way is base.
func (c *Cache) lru(base int) []uint64 {
	return c.words[2*base+c.ways : 2*base+2*c.ways : 2*base+2*c.ways]
}

// find returns the way of keys holding k, or -1.
func find(keys []uint64, k uint64) int {
	for i, v := range keys {
		if v == k {
			return i
		}
	}
	return -1
}

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
	base, keys := c.set(lineAddr)
	i := find(keys, c.key(lineAddr))
	if i < 0 {
		return HitInfo{}
	}
	c.lru(base)[i] = c.tick
	f := &c.flags[base+i]
	info := HitInfo{Hit: true, WasPrefetch: *f&flagPrefetch != 0, FillRowHit: *f&flagFillHit != 0, Marked: *f&flagMarked != 0}
	if info.WasPrefetch {
		*f &^= flagPrefetch | flagMarked
	}
	return info
}

// Contains reports whether lineAddr is present without touching LRU or
// the P bit (used by prefetchers to avoid redundant prefetches).
func (c *Cache) Contains(lineAddr uint64) bool {
	_, keys := c.set(lineAddr)
	return find(keys, c.key(lineAddr)) >= 0
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
// row hit (consumed later by the RBHU statistic). The victim is the first
// invalid way, else the way with the oldest LRU stamp, the lowest such way.
func (c *Cache) Fill(lineAddr uint64, prefetch, fillRowHit bool) Eviction {
	c.tick++
	k := c.key(lineAddr)
	base, keys := c.set(lineAddr)
	lru := c.lru(base)
	victim := -1
	for i, v := range keys {
		if v == k {
			// Refill of a present line (e.g. a racing demand already filled
			// it): keep the stronger "demand" classification.
			if !prefetch {
				c.flags[base+i] &^= flagPrefetch
			}
			lru[i] = c.tick
			return Eviction{}
		}
		if victim < 0 && v == 0 {
			victim = i
		}
	}
	var ev Eviction
	if victim < 0 {
		victim = 0
		for i := 1; i < len(lru); i++ {
			if lru[i] < lru[victim] {
				victim = i
			}
		}
		f := c.flags[base+victim]
		ev = Eviction{
			Valid:       true,
			LineAddr:    keys[victim]>>1<<c.tagShift | lineAddr&c.setMask,
			WasPrefetch: f&flagPrefetch != 0,
			Marked:      f&flagMarked != 0,
		}
	}
	var f uint8
	if prefetch {
		f |= flagPrefetch
	}
	if fillRowHit {
		f |= flagFillHit
	}
	keys[victim], lru[victim], c.flags[base+victim] = k, c.tick, f
	return ev
}

// Mark tags a present lineAddr with the owner's flag, which the line
// keeps until a demand hit consumes its P bit (HitInfo.Marked) or it is
// evicted (Eviction.Marked). The simulator marks memory-side prefetch
// fills this way. It is a no-op if the line is absent.
func (c *Cache) Mark(lineAddr uint64) {
	base, keys := c.set(lineAddr)
	if i := find(keys, c.key(lineAddr)); i >= 0 {
		c.flags[base+i] |= flagMarked
	}
}

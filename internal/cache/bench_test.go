package cache

import (
	"math/rand"
	"testing"
)

// BenchmarkCache measures the L2 shape (512 KB, 8 ways, 64 B lines) under
// random lines over 16 times its capacity: one op is an Access, and a
// Fill after each miss, one fill in four a prefetch.
func BenchmarkCache(b *testing.B) {
	cfg := Config{Bytes: 512 << 10, Ways: 8, LineBytes: 64, HitCycles: 15}
	c := New(cfg)
	rng := rand.New(rand.NewSource(1))
	lines := make([]uint64, 1<<16)
	for i := range lines {
		lines[i] = uint64(rng.Int63n(int64(16 * cfg.Lines())))
	}
	for _, l := range lines {
		c.Fill(l, false, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i&(len(lines)-1)]
		if !c.Access(l).Hit {
			c.Fill(l, i&3 == 0, i&4 == 0)
		}
	}
}

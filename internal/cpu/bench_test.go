package cpu

import (
	"testing"

	"padc/internal/trace"
)

// latencyMem answers every load with a hit latency cycles out, as a
// memory that never rejects and never goes Pending would.
type latencyMem struct{ latency uint64 }

func (m latencyMem) Load(_ int, _, _, _ uint64, _ bool, now uint64, _ bool) LoadResult {
	return LoadResult{ReadyAt: now + m.latency}
}

// BenchmarkCoreDependentChain measures a pointer chase: a 256-entry ROB
// of loads that each depend on the one before, against a fixed-latency
// memory. The core is driven as the event kernel drives it: it ticks at
// its NextEvent claim and Skip covers the cycles it sleeps through. One
// op is one tick.
func BenchmarkCoreDependentChain(b *testing.B) {
	g := trace.Gen{Pattern: pattern{ops: []trace.MemOp{{Line: 1, Dep: true}}}, MemEvery: 1}
	c := New(0, Config{ROB: 256, Width: 4}, g, latencyMem{latency: 200})
	now := uint64(1)
	step := func() {
		c.Tick(now)
		next := c.NextEvent(now)
		c.Skip(next - now - 1)
		now = next
	}
	for i := 0; i < 4*256; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
}

package memctrl

import (
	"fmt"
	"testing"

	"padc/internal/dram"
)

// benchState is a deterministic CoreState: even cores prefetch accurately
// (critical prefetches), odd cores do not (urgent demands).
type benchState struct{}

func (benchState) PrefetchCritical(core int) bool { return core%2 == 0 }
func (benchState) UrgencyEnabled() bool           { return true }

// benchCores is the simulated core count the benchmark schedules for.
const benchCores = 8

// fillController preloads depth requests spread over banks, rows, cores
// and request classes, mirroring a busy steady-state buffer.
func fillController(c *Controller, depth int, banks int) []*Request {
	reqs := make([]*Request, depth)
	for i := 0; i < depth; i++ {
		r := &Request{
			Core:     i % benchCores,
			Line:     uint64(i),
			Addr:     dram.Address{Bank: i % banks, Row: uint64(i/banks) % 4},
			Prefetch: i%3 == 0,
			WasPref:  i%3 == 0,
		}
		c.Enqueue(r)
		reqs[i] = r
	}
	return reqs
}

// tickSteadyState drives one cycle and recycles completions back into the
// buffer, so occupancy (and therefore per-tick work) stays at depth.
func tickSteadyState(c *Controller, now uint64, banks int) {
	for _, r := range c.Tick(now, benchCores) {
		r.FinishAt = 0
		r.ServiceAt = 0
		r.Arrival = now
		r.Prefetch = r.WasPref
		r.Addr.Row = (r.Addr.Row + 1) % 4 // wander rows so hits and conflicts mix
		c.Enqueue(r)
	}
}

// BenchmarkControllerTick measures the scheduler hot path: one Tick per
// iteration against a full request buffer at the given depth, recycling
// completions so the buffer never drains. Depths 16/64/256 span the
// paper's per-core to 8-core buffer sizings.
func BenchmarkControllerTick(b *testing.B) {
	policies := []struct {
		name string
		pol  Policy
	}{
		{"fr-fcfs", DemandPrefEqual},
		{"aps", APS},
		{"aps-rank", APSRank},
	}
	for _, p := range policies {
		for _, depth := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("policy=%s/depth=%d", p.name, depth), func(b *testing.B) {
				cfg := dram.DefaultConfig()
				ch := dram.NewChannel(cfg)
				c := NewStack(p.pol.Stack(), ch, depth, benchState{})
				fillController(c, depth, cfg.Banks)
				now := uint64(0)
				// Warm up past slice growth and map sizing.
				for i := 0; i < 4*depth; i++ {
					now++
					tickSteadyState(c, now, cfg.Banks)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now++
					tickSteadyState(c, now, cfg.Banks)
				}
			})
		}
	}
}

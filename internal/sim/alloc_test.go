package sim

import (
	"runtime"
	"testing"

	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/topology"
)

// TestRunLoopSteadyStateAllocs pins the allocation-free run loop. Memory
// requests, MSHR entries and prefetch candidate buffers are recycled, so
// doubling a run's length must add (almost) no allocations: each config
// runs at N and 2N instructions, and the extra allocations must stay
// under one per thousand extra serviced requests. Setup and result
// assembly cost the same at both lengths and cancel out; occasional map
// growth fits under the bound, one allocation per request does not.
// MemStats counts the whole process's allocations, so each length reads
// the fewest of three identical runs: a stray burst from elsewhere in
// the process lands on one run, not on all three.
func TestRunLoopSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		insts uint64
		mk    func() Config
	}{
		{"chase", 20_000, func() Config { return benchConfig(KernelEvents) }},
		{"padc4-stream", 30_000, func() Config {
			cfg := quickCfg(4, "swim", "art", "libquantum", "milc")
			cfg.Policy = memctrl.APS // PADC: APS + APD (on by default) + urgency
			return cfg
		}},
		{"dspatch-memside-far-refresh", 150_000, func() Config {
			cfg := quickCfg(4, "swim", "omnetpp", "leslie3d", "ammp")
			cfg.Policy = memctrl.APS
			cfg.Prefetcher = PFDSPatch
			cfg.MemSide = true
			cfg.DRAM.Refresh.Mode = refresh.PerBank
			tp, err := topology.Preset("far-tier", cfg.DRAM.Channels)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topology = &tp
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(insts uint64) (mallocs, serviced uint64) {
				mallocs = ^uint64(0)
				for i := 0; i < 3; i++ {
					cfg := tc.mk()
					cfg.TargetInsts = insts
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					res, err := Run(cfg)
					runtime.ReadMemStats(&m1)
					if err != nil {
						t.Fatal(err)
					}
					mallocs, serviced = min(mallocs, m1.Mallocs-m0.Mallocs), res.Serviced
				}
				return mallocs, serviced
			}
			a1, s1 := run(tc.insts)
			a2, s2 := run(2 * tc.insts)
			if s2 <= s1 {
				t.Fatalf("setup: doubling the run serviced %d then %d requests", s1, s2)
			}
			extraAllocs := int64(a2) - int64(a1)
			extraReqs := int64(s2 - s1)
			t.Logf("N: %d allocs, %d serviced; 2N: %d allocs, %d serviced", a1, s1, a2, s2)
			if extraAllocs*1000 >= extraReqs {
				t.Errorf("%d extra allocations for %d extra serviced requests (%.3f per request), want < 1 per 1000",
					extraAllocs, extraReqs, float64(extraAllocs)/float64(extraReqs))
			}
		})
	}
}

package sim

import (
	"testing"

	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/trace"
	"padc/internal/workload"
)

// benchConfig is an idle-heavy single-core configuration: a dependent
// pointer chase over a cache-defeating working set, no prefetcher, and a
// small ROB. Every load serializes a full DRAM round trip behind the
// previous one, so the core stalls for the vast majority of cycles — the
// workload class the event kernel was built for.
func benchConfig(k Kernel) Config {
	cfg := Baseline(1)
	cfg.Core.ROB = 64
	cfg.Prefetcher = PFNone
	cfg.TargetInsts = 50_000
	cfg.Workload = []workload.Profile{{
		Name:  "chase",
		Class: workload.Unfriendly,
		Gen: trace.Gen{
			Pattern:  trace.RandomPattern{Seed: 1, WSLines: 1 << 20, Dep: true},
			MemEvery: 4,
		},
	}}
	cfg.Kernel = k
	return cfg
}

// BenchmarkSystemRun measures whole-system simulation throughput under
// both kernels. The ns/cycle metric (wall time per simulated cycle) is
// the headline: the event kernel must stay well ahead of stepped on
// stall-heavy workloads. Recorded by scripts/benchsnap into
// BENCH_sweep.json and guarded by `make bench-compare`.
func BenchmarkSystemRun(b *testing.B) {
	bench := func(b *testing.B, k Kernel, mk func(Kernel) Config) {
		var cycles uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Run(mk(k))
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	}
	for _, k := range []Kernel{KernelStepped, KernelEvents} {
		k := k
		b.Run(k.String(), func(b *testing.B) { bench(b, k, benchConfig) })
		// The two-domain variant measures the topology layer's overhead:
		// steering on every mapped line plus NextEvent aggregation across
		// heterogeneous controllers with a long far-tier link.
		b.Run(k.String()+"/far-tier", func(b *testing.B) {
			bench(b, k, func(k Kernel) Config {
				cfg := benchConfig(k)
				tp, err := topology.Preset("far-tier", cfg.DRAM.Channels)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Topology = &tp
				return cfg
			})
		})
	}
	// The observed variant runs the event kernel with every push observer
	// attached (the telemetry event ring and epoch sampler, the flight
	// recorder and the lifecycle tracer): the cost of observation when on.
	b.Run("observed", func(b *testing.B) {
		bench(b, KernelEvents, func(k Kernel) Config {
			cfg := benchConfig(k)
			cfg.Telemetry = telemetry.New(telemetry.Options{EpochCycles: 10_000})
			cfg.Flight = flight.New(flight.Options{})
			cfg.Lifecycle = lifecycle.New(lifecycle.Options{})
			return cfg
		})
	})
}

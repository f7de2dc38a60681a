// Package padc is a from-scratch reproduction of "Prefetch-Aware DRAM
// Controllers" (Lee, Mutlu, Narasiman, Patt — MICRO-41, 2008): a
// cycle-level chip-multiprocessor and DDR3 DRAM simulator whose memory
// controller implements the paper's Adaptive Prefetch Scheduling (APS) and
// Adaptive Prefetch Dropping (APD) mechanisms alongside the rigid
// demand-first / demand-prefetch-equal / prefetch-first baselines.
//
// The package is the stable public surface over the internal substrates
// (DRAM, caches, prefetchers, cores, synthetic workloads). Typical use:
//
//	res, err := padc.Run(padc.DefaultSystem(4), []string{"swim", "art", "libquantum", "milc"})
//
// Run returns the simulator's own record (Result is stats.Results); the
// paper's metrics are its methods, e.g. res.PerCore[0].IPC(), res.RBHU()
// and res.Bus.Total().
//
// SystemConfig names each configuration kind — scheduling policy,
// prefetcher, filter, page policy, refresh mode, topology — in
// the vocabulary padcsim's flags and sweep specs use:
//
//	cfg := padc.DefaultSystem(1)
//	cfg.Policy, cfg.Prefetcher = "demand-first", "stride"
//
// Each name is parsed by the package that owns the kind, so an unknown
// name is an error from Run and Describe. Or regenerate any of the
// paper's figures and tables:
//
//	out, err := padc.Experiment("fig16", false)
package padc

import (
	"sort"

	"padc/internal/cpu"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// SystemConfig describes a simulated machine by name; see sim.Machine
// for the fields. DefaultSystem returns the paper's baseline; zero-valued
// fields of a hand-built config are invalid. Its Describe method reports
// the machine Run would simulate.
type SystemConfig = sim.Machine

// ResolvedConfig and its parts are the fully-lowered view Describe
// reports; padcsim -dump-config prints it as JSON.
type (
	ResolvedConfig   = sim.ResolvedConfig
	ResolvedCache    = sim.ResolvedCache
	ResolvedRefresh  = sim.ResolvedRefresh
	ResolvedDRAM     = sim.ResolvedDRAM
	ResolvedDomain   = sim.ResolvedDomain
	ResolvedTopology = sim.ResolvedTopology
)

// NewTelemetry builds a telemetry sink sampling every epochCycles cycles
// (0 disables the epoch series) with the default event-ring capacity.
// Attach it to SystemConfig.Telemetry before Run.
func NewTelemetry(epochCycles uint64) *telemetry.Telemetry {
	return telemetry.New(telemetry.Options{EpochCycles: epochCycles})
}

// NewFlightRecorder builds a bank-state flight recorder rotating every
// epochCycles cycles (0 uses the package default) and retaining the
// default ring of epochs. Attach it to SystemConfig.Flight before Run;
// memory stays bounded on arbitrarily long runs.
func NewFlightRecorder(epochCycles uint64) *flight.Recorder {
	return flight.New(flight.Options{EpochCycles: epochCycles})
}

// NewLifecycle builds a request-lifecycle tracer retaining the default
// reservoir of sampled spans per core. Attach it to SystemConfig.Lifecycle
// before Run.
func NewLifecycle() *lifecycle.Tracer {
	return lifecycle.New(lifecycle.Options{})
}

// CycleClassNames returns the cycle-accounting bucket names in the order
// Result.PerCore[i].Attribution uses.
func CycleClassNames() []string { return cpu.CycleClassNames() }

// DefaultSystem returns the paper's baseline machine for ncores in
// {1, 2, 4, 8}, running the full PADC (APS + APD + urgency).
func DefaultSystem(ncores int) SystemConfig { return sim.DefaultMachine(ncores) }

// TopologyNames returns the built-in topology preset names.
func TopologyNames() []string { return topology.Names() }

// Result is a full simulation outcome: the simulator's own record, whose
// methods derive the paper's metrics.
type Result = stats.Results

// Benchmarks returns the names of the 55 synthetic benchmarks.
func Benchmarks() []string { return workload.Names() }

// Run simulates the given benchmarks (one per core, at most c.Cores) on
// the configured system until every core retires its instruction target.
func Run(c SystemConfig, benchmarks []string) (Result, error) {
	cfg, err := c.Config()
	if err != nil {
		return Result{}, err
	}
	for _, b := range benchmarks {
		p, err := workload.ByName(b)
		if err != nil {
			return Result{}, err
		}
		cfg.Workload = append(cfg.Workload, p)
	}
	return sim.Run(cfg)
}

// sortedKeys is shared by the experiment registry.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

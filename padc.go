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
// SystemConfig names each configuration kind — scheduling policy,
// prefetcher, filter, page policy, refresh mode, topology, kernel — in
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
	"fmt"
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
// epochCycles cycles (0 uses the package default) and retaining the last
// maxEpochs epochs (0 uses the default ring bound). Attach it to
// SystemConfig.Flight before Run; memory stays O(maxEpochs × banks) on
// arbitrarily long runs.
func NewFlightRecorder(epochCycles uint64, maxEpochs int) *flight.Recorder {
	return flight.New(flight.Options{EpochCycles: epochCycles, MaxEpochs: maxEpochs})
}

// NewLifecycle builds a request-lifecycle tracer retaining up to
// reservoirPerCore sampled spans per core (0 uses the default). Attach it
// to SystemConfig.Lifecycle before Run.
func NewLifecycle(reservoirPerCore int) *lifecycle.Tracer {
	return lifecycle.New(lifecycle.Options{ReservoirPerCore: reservoirPerCore})
}

// CycleClassNames returns the cycle-accounting bucket names in the order
// CoreResult.Attribution uses.
func CycleClassNames() []string { return cpu.CycleClassNames() }

// DefaultSystem returns the paper's baseline machine for ncores in
// {1, 2, 4, 8}, running the full PADC (APS + APD + urgency).
func DefaultSystem(ncores int) SystemConfig { return sim.DefaultMachine(ncores) }

// TopologyNames returns the built-in topology preset names.
func TopologyNames() []string { return topology.Names() }

// CoreResult is one core's outcome.
type CoreResult struct {
	Benchmark    string
	IPC          float64
	MPKI         float64
	SPL          float64
	PrefAccuracy float64
	PrefCoverage float64
	PrefSent     uint64
	PrefDropped  uint64

	// Attribution is the cycle-accounting profile in CycleClassNames
	// order; nil unless SystemConfig.Profile was set.
	Attribution []uint64
}

// Result is a full simulation outcome.
type Result struct {
	Cycles     uint64
	Cores      []CoreResult
	BusDemand  uint64
	BusUseful  uint64
	BusUseless uint64
	RowHitRate float64
	RBHU       float64
	Dropped    uint64

	// DRAM maintenance totals, all zero unless RefreshMode enabled the
	// refresh engine.
	RefreshesIssued      uint64
	RefreshesPostponed   uint64
	RefreshesPulledIn    uint64
	RefreshesForced      uint64
	RefreshBlockedCycles uint64

	// Domains holds per-domain breakdowns on multi-tier topologies (nil on
	// flat machines): service and row-hit counts, bus occupancy, refresh
	// blocking, and the tier-local PADC accuracy estimates APS/APD acted
	// on.
	Domains []DomainResult

	// MemSide reports the memory-side prefetch pipeline, nil unless
	// SystemConfig.MemSide enabled the path.
	MemSide *MemSideResult

	// DSPatch reports the dual-spatial prefetcher's bias trade-off, nil
	// unless the dspatch prefetcher ran.
	DSPatch *DSPatchResult
}

// MemSideResult is the memory-side prefetch pipeline over every
// controller: candidate flow, drop partition, and the issued requests'
// cache outcomes.
type MemSideResult struct {
	Generated       uint64
	Enqueued        uint64
	Issued          uint64
	Filtered        uint64
	DroppedOverflow uint64
	DroppedStale    uint64
	DroppedPressure uint64
	GateClosed      uint64
	Serviced        uint64
	Used            uint64
	Dropped         uint64
	Accuracy        float64 // used / (serviced + APD-dropped)
}

// DSPatchResult is the dual-spatial prefetcher's coverage/accuracy bias
// summary: trigger selections per pattern, each pattern's measured bit
// accuracy, and the final bandwidth-headroom sample.
type DSPatchResult struct {
	Issued       uint64
	CovPSelected uint64
	AccPSelected uint64
	CovAccuracy  float64
	AccAccuracy  float64
	Headroom     float64
}

// DomainResult is one memory domain's slice of the run.
type DomainResult struct {
	Name       string
	Channels   int
	LinkCycles uint64

	Serviced       uint64
	RowHitRate     float64
	BusBusyCycles  uint64
	RefreshBlocked uint64

	PrefSent     uint64
	PrefUsed     uint64
	PrefAccuracy float64 // whole-run used/sent for prefetches into this tier

	// CoreAccuracy is each core's tier-local PAR estimate at the end of
	// the run — the per-tier PADC accuracy APS promotion and APD drop
	// thresholds consulted.
	CoreAccuracy []float64
}

// BusTotal returns total transferred cache lines.
func (r Result) BusTotal() uint64 { return r.BusDemand + r.BusUseful + r.BusUseless }

// Benchmarks returns the names of the 55 synthetic benchmarks.
func Benchmarks() []string { return workload.Names() }

// Run simulates the given benchmarks (one per core) on the configured
// system until every core retires its instruction target.
func Run(c SystemConfig, benchmarks []string) (Result, error) {
	cfg, err := c.Config()
	if err != nil {
		return Result{}, err
	}
	if len(benchmarks) == 0 || len(benchmarks) > c.Cores {
		return Result{}, fmt.Errorf("padc: need 1..%d benchmarks, got %d", c.Cores, len(benchmarks))
	}
	for _, b := range benchmarks {
		p, err := workload.ByName(b)
		if err != nil {
			return Result{}, err
		}
		cfg.Workload = append(cfg.Workload, p)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return lower(res), nil
}

func lower(res stats.Results) Result {
	out := Result{
		Cycles:     res.Cycles,
		BusDemand:  res.Bus.Demand,
		BusUseful:  res.Bus.UsefulPref,
		BusUseless: res.Bus.UselessPref,
		RowHitRate: res.RBH(),
		RBHU:       res.RBHU(),
		Dropped:    res.Dropped,

		RefreshesIssued:      res.Refresh.Issued,
		RefreshesPostponed:   res.Refresh.Postponed,
		RefreshesPulledIn:    res.Refresh.PulledIn,
		RefreshesForced:      res.Refresh.Forced,
		RefreshBlockedCycles: res.Refresh.BlockedCycles,
	}
	for _, d := range res.Domains {
		out.Domains = append(out.Domains, DomainResult{
			Name:           d.Name,
			Channels:       d.Channels,
			LinkCycles:     d.LinkCycles,
			Serviced:       d.Serviced,
			RowHitRate:     d.RBH(),
			BusBusyCycles:  d.BusBusyCycles,
			RefreshBlocked: d.RefreshBlocked,
			PrefSent:       d.PrefSent,
			PrefUsed:       d.PrefUsed,
			PrefAccuracy:   d.ACC(),
			CoreAccuracy:   append([]float64(nil), d.Accuracy...),
		})
	}
	if ms := res.MemSide; ms != nil {
		out.MemSide = &MemSideResult{
			Generated: ms.Generated, Enqueued: ms.Enqueued, Issued: ms.Issued,
			Filtered: ms.Filtered, DroppedOverflow: ms.DroppedOverflow,
			DroppedStale: ms.DroppedStale, DroppedPressure: ms.DroppedPressure,
			GateClosed: ms.GateClosed,
			Serviced:   ms.Serviced, Used: ms.Used, Dropped: ms.Dropped,
			Accuracy: ms.ACC(),
		}
	}
	if ds := res.DSPatch; ds != nil {
		out.DSPatch = &DSPatchResult{
			Issued: ds.Issued, CovPSelected: ds.CovPSelected, AccPSelected: ds.AccPSelected,
			CovAccuracy: ds.CovAccuracy, AccAccuracy: ds.AccAccuracy, Headroom: ds.Headroom,
		}
	}
	for _, c := range res.PerCore {
		out.Cores = append(out.Cores, CoreResult{
			Benchmark:    c.Benchmark,
			IPC:          c.IPC(),
			MPKI:         c.MPKI(),
			SPL:          c.SPL(),
			PrefAccuracy: c.ACC(),
			PrefCoverage: c.COV(),
			PrefSent:     c.PrefSent,
			PrefDropped:  c.PrefDropped,
			Attribution:  c.Attribution,
		})
	}
	return out
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

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
	"strings"

	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// SystemConfig describes a simulated machine. DefaultSystem returns the
// paper's baseline; zero-valued fields of a hand-built config are invalid.
type SystemConfig struct {
	Cores int

	// Policy names the scheduling policy in padcsim's -policy vocabulary:
	// "padc" is the paper's APS + APD, "demand-first" its rigid baseline,
	// and a "rules:" string such as "rules:critical,rowhit,urgent,fcfs"
	// composes an explicit stack of the priority rules in
	// internal/memctrl/sched for §6-style priority-order ablations. Only
	// padc and padc-rank enable adaptive prefetch dropping; no-pref also
	// removes the prefetcher.
	Policy string

	// Prefetcher names the per-core prefetch engine in padcsim's
	// -prefetcher vocabulary: "stream" (POWER4/5-style) is the paper
	// baseline, "none" disables prefetching.
	Prefetcher string

	// Filter optionally wraps the prefetcher with one of the §6.12
	// comparison mechanisms: "" or "none", "ddpf" (dynamic data prefetch
	// filtering) or "fdp" (feedback-directed prefetching).
	Filter string

	Urgency bool // priority rule 3 (boost demands of inaccurate cores)

	// MemSide enables the DROPLET-style memory-side prefetch path: each
	// memory controller generates same-row next-line candidates from the
	// demand stream it admits and drains them into idle row-hit windows,
	// gated and APD-aged by its tier's memory-side accuracy meter.
	MemSide bool

	Channels    int    // independent memory controllers
	RowBufferKB uint64 // DRAM row-buffer size per bank

	// Topology selects the memory wiring: "" or "flat" (default, one
	// domain holding Channels channels), a named preset such as
	// "far-tier" (near domain at Channels channels plus a one-channel
	// pooled tier behind a 256-cycle link), or an inline JSON topology
	// spec (a string starting with "{"; see internal/topology). Presets
	// are resolved against Channels. TopologyNames lists the presets.
	Topology    string
	L2KB        uint64 // last-level cache per core (or total when SharedL2)
	SharedL2    bool
	Permutation bool // permutation-based bank interleaving
	Runahead    bool

	// RefreshMode enables the DRAM maintenance engine: "" or "off"
	// (default, no refresh), "per-bank" (staggered REFpb, tRFCpb per
	// bank), or "all-bank" (rank-wide REF, tRFC across every bank). The
	// engine follows the JEDEC postpone/pull-in credit window (up to 8
	// refreshes either way) with a forced-refresh deadline when credits
	// run out.
	RefreshMode string

	// PagePolicy selects row-buffer management: "" or "open" (default),
	// "closed", or "adaptive" (per-bank keep-open/precharge predictor
	// trained on recent row-buffer outcomes).
	PagePolicy string

	TargetInsts uint64 // instructions each core retires before stats freeze

	// Kernel selects the main-loop strategy: "" or "events" (default, the
	// cycle-skipping event kernel) or "stepped" (the cycle-by-cycle
	// reference loop). Both simulate the same machine and produce
	// identical results; "stepped" exists as the differential-testing
	// baseline and as a debugging fallback.
	Kernel string

	// Telemetry, when non-nil, instruments the run: counters, epoch time
	// series and trace events land in it (build one with NewTelemetry and
	// export with its WriteCSV / WriteJSONL / WriteChromeTrace / Summary
	// methods). Nil keeps the simulator on the uninstrumented fast path.
	Telemetry *telemetry.Telemetry

	// Flight, when non-nil, is the bank-state flight recorder: bounded
	// per-epoch × per-bank accounting of row outcomes, open/close
	// transitions, demand/prefetch issues, refresh interference and
	// scheduler rule-win attribution (build one with NewFlightRecorder;
	// export with its WriteCSV / WriteJSONL / ChromeCounters / Summary
	// methods). Nil keeps the hot path at one pointer compare per hook.
	Flight *flight.Recorder

	// Lifecycle, when non-nil, traces every memory request end to end
	// (enqueue, promotion, issue, bus, completion/drop) into per-core
	// queue-wait/service breakdowns and a sampled span reservoir (build
	// one with NewLifecycle; export with its WriteCSV / WriteJSONL /
	// BreakdownTable methods or fold its spans into a Chrome trace).
	Lifecycle *lifecycle.Tracer

	// Profile enables the cycle-accounting profiler: each core cycle is
	// attributed to exactly one bucket (retire, demand-miss, mshr-full,
	// compute, idle) and reported in Result.Cores[i].Attribution.
	Profile bool
}

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
func DefaultSystem(ncores int) SystemConfig {
	base := sim.Baseline(ncores)
	return SystemConfig{
		Cores:       ncores,
		Policy:      "padc",
		Prefetcher:  "stream",
		Urgency:     true,
		Channels:    1,
		RowBufferKB: base.DRAM.RowBytes >> 10,
		L2KB:        base.L2.Bytes >> 10,
		TargetInsts: base.TargetInsts,
	}
}

// toSim lowers the public config onto the internal simulator config.
func (c SystemConfig) toSim() (sim.Config, error) {
	cfg := sim.Baseline(c.Cores)
	pf, err := sim.ParsePrefetcher(c.Prefetcher)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Prefetcher = pf
	// After the prefetcher: no-pref removes it.
	if err := sim.ApplyPolicy(&cfg, c.Policy); err != nil {
		return sim.Config{}, err
	}
	if cfg.Filter, err = sim.ParseFilter(c.Filter); err != nil {
		return sim.Config{}, err
	}
	cfg.PADC.EnableUrgency = c.Urgency
	cfg.MemSide = c.MemSide

	if c.Channels > 0 {
		cfg.DRAM.Channels = c.Channels
	}
	if c.RowBufferKB > 0 {
		cfg.DRAM.RowBytes = c.RowBufferKB << 10
	}
	if c.L2KB > 0 {
		cfg.L2.Bytes = c.L2KB << 10
	}
	cfg.SharedL2 = c.SharedL2
	if c.SharedL2 {
		cfg.L2.Ways = 4 * c.Cores
		cfg.MSHR = cfg.BufferSlots
	}
	cfg.DRAM.Permutation = c.Permutation
	mode, err := refresh.ParseMode(c.RefreshMode)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.DRAM.Refresh.Mode = mode
	page, err := dram.ParsePagePolicy(c.PagePolicy)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.DRAM.Page = page
	cfg.Core.Runahead = c.Runahead
	topo, err := c.resolveTopology(cfg.DRAM.Channels)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Topology = topo
	if c.TargetInsts > 0 {
		cfg.TargetInsts = c.TargetInsts
	}
	kernel, err := sim.ParseKernel(c.Kernel)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Kernel = kernel
	cfg.Telemetry = c.Telemetry
	cfg.Flight = c.Flight
	cfg.Lifecycle = c.Lifecycle
	cfg.Profile = c.Profile
	// Full validation (including the workload) happens in sim.Run.
	return cfg, nil
}

// resolveTopology lowers the Topology string: empty and "flat" stay nil
// (the flat machine), other names resolve as presets against the base
// channel count, and a leading "{" parses as an inline JSON spec.
func (c SystemConfig) resolveTopology(channels int) (*topology.Topology, error) {
	spec := strings.TrimSpace(c.Topology)
	switch {
	case spec == "" || spec == "flat":
		return nil, nil
	case strings.HasPrefix(spec, "{"):
		t, err := topology.FromJSON([]byte(spec))
		if err != nil {
			return nil, err
		}
		return &t, nil
	default:
		t, err := topology.Preset(spec, channels)
		if err != nil {
			return nil, err
		}
		return &t, nil
	}
}

// TopologyNames returns the built-in topology preset names.
func TopologyNames() []string { return topology.Names() }

// ResolvedCache is one cache level's resolved shape.
type ResolvedCache struct {
	Bytes     uint64 `json:"bytes"`
	Ways      int    `json:"ways"`
	LineBytes uint64 `json:"line_bytes"`
	HitCycles uint64 `json:"hit_cycles"`
}

// ResolvedRefresh is the maintenance engine's resolved timing. The timing
// fields are omitted when Mode is "off" (the engine never runs).
type ResolvedRefresh struct {
	Mode        string `json:"mode"`
	TREFI       uint64 `json:"trefi,omitempty"`
	TRFC        uint64 `json:"trfc,omitempty"`
	TRFCpb      uint64 `json:"trfcpb,omitempty"`
	MaxPostpone int    `json:"max_postpone,omitempty"`
}

// ResolvedDRAM is the memory system's resolved geometry, timing (in
// processor cycles), and management policies.
type ResolvedDRAM struct {
	Channels    int    `json:"channels"`
	Banks       int    `json:"banks"`
	RowBytes    uint64 `json:"row_bytes"`
	LineBytes   uint64 `json:"line_bytes"`
	Permutation bool   `json:"permutation"`
	PagePolicy  string `json:"page_policy"`

	TRP   uint64 `json:"trp"`
	TRCD  uint64 `json:"trcd"`
	CL    uint64 `json:"cl"`
	Burst uint64 `json:"burst"`

	Refresh ResolvedRefresh `json:"refresh"`
}

// ResolvedDomain is one memory domain's resolved wiring: its channel
// range in global numbering, link latency, and effective timing.
type ResolvedDomain struct {
	Name         string `json:"name"`
	Channels     int    `json:"channels"`
	FirstChannel int    `json:"first_channel"`
	LinkCycles   uint64 `json:"link_cycles"`

	TRP   uint64 `json:"trp"`
	TRCD  uint64 `json:"trcd"`
	CL    uint64 `json:"cl"`
	Burst uint64 `json:"burst"`
}

// ResolvedTopology is the resolved memory wiring: the domain list in
// global channel order and the interleave policy steering addresses
// across it. A flat machine reports one zero-link domain.
type ResolvedTopology struct {
	Name       string           `json:"name"`
	Interleave string           `json:"interleave"`
	Channels   int              `json:"channels"` // machine-wide total
	Domains    []ResolvedDomain `json:"domains"`
}

// ResolvedConfig is the fully-lowered view of a SystemConfig: every
// default filled in, every enum reduced to its canonical spelling, and
// the scheduling policy expanded into the rule stack it runs as. padcsim
// -dump-config prints it as JSON so scripts and sweep specs can pin the
// exact machine a flag combination produces.
type ResolvedConfig struct {
	Cores       int    `json:"cores"`
	TargetInsts uint64 `json:"target_insts"`

	RuleStack  string `json:"rule_stack"`
	APD        bool   `json:"apd"`
	Urgency    bool   `json:"urgency"`
	Prefetcher string `json:"prefetcher"`
	Filter     string `json:"filter"`
	MemSide    bool   `json:"memside,omitempty"`

	DRAM        ResolvedDRAM     `json:"dram"`
	Topology    ResolvedTopology `json:"topology"`
	L1          ResolvedCache    `json:"l1"`
	L2          ResolvedCache    `json:"l2"`
	SharedL2    bool             `json:"shared_l2"`
	MSHR        int              `json:"mshr_per_cache"`
	BufferSlots int              `json:"buffer_slots"`
}

// Describe lowers the config exactly as Run would and reports the
// resolved machine, or the configuration error Run would hit.
func (c SystemConfig) Describe() (ResolvedConfig, error) {
	cfg, err := c.toSim()
	if err != nil {
		return ResolvedConfig{}, err
	}
	stack, err := memctrl.ResolveStack(cfg.Policy, cfg.Rules)
	if err != nil {
		return ResolvedConfig{}, err
	}
	rc := ResolvedConfig{
		Cores:       cfg.Cores,
		TargetInsts: cfg.TargetInsts,
		RuleStack:   stack.String(),
		APD:         cfg.PADC.EnableAPD,
		Urgency:     cfg.PADC.EnableUrgency,
		Prefetcher:  cfg.Prefetcher.String(),
		Filter:      cfg.Filter.String(),
		MemSide:     cfg.MemSide,
		DRAM: ResolvedDRAM{
			Channels:    cfg.DRAM.Channels,
			Banks:       cfg.DRAM.Banks,
			RowBytes:    cfg.DRAM.RowBytes,
			LineBytes:   cfg.DRAM.LineBytes,
			Permutation: cfg.DRAM.Permutation,
			PagePolicy:  cfg.DRAM.Page.String(),
			TRP:         cfg.DRAM.Timing.TRP,
			TRCD:        cfg.DRAM.Timing.TRCD,
			CL:          cfg.DRAM.Timing.CL,
			Burst:       cfg.DRAM.Timing.Burst,
			Refresh:     ResolvedRefresh{Mode: refresh.Off.String()},
		},
		L1:          ResolvedCache(cfg.L1),
		L2:          ResolvedCache(cfg.L2),
		SharedL2:    cfg.SharedL2,
		MSHR:        cfg.MSHR,
		BufferSlots: cfg.BufferSlots,
	}
	if cfg.DRAM.Refresh.Enabled() {
		r := cfg.DRAM.Refresh.Resolved()
		rc.DRAM.Refresh = ResolvedRefresh{
			Mode:        r.Mode.String(),
			TREFI:       r.TREFI,
			TRFC:        r.TRFC,
			TRFCpb:      r.TRFCpb,
			MaxPostpone: r.MaxPostpone,
		}
	}
	topo := topology.Flat(cfg.DRAM.Channels)
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	il := topo.Interleave
	if il == "" {
		il = topology.InterleaveChannel
	}
	rc.Topology = ResolvedTopology{
		Name:       topo.Name,
		Interleave: il,
		Channels:   topo.TotalChannels(),
	}
	offs := topo.ChannelOffsets()
	for d, dom := range topo.Domains {
		tm := cfg.DRAM.Timing
		if dom.Timing != nil {
			tm = *dom.Timing
		}
		rc.Topology.Domains = append(rc.Topology.Domains, ResolvedDomain{
			Name: dom.Name, Channels: dom.Channels, FirstChannel: offs[d],
			LinkCycles: dom.LinkCycles,
			TRP:        tm.TRP, TRCD: tm.TRCD, CL: tm.CL, Burst: tm.Burst,
		})
	}
	return rc, nil
}

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
	cfg, err := c.toSim()
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

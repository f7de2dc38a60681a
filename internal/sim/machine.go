package sim

import (
	"fmt"
	"strings"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
)

// Machine describes a simulated machine by name, in the vocabulary
// padcsim's flags and sweep specs use. Config lowers it onto a Config;
// it is the one lowering padc.Run, padcsim -dump-config and sweep jobs
// share. DefaultMachine returns the paper's baseline; zero-valued fields
// of a hand-built machine are invalid. The JSON names are the sweep
// vocabulary: a runner.Spec's generic axes and alone overlay address
// fields by them; the observers have none.
type Machine struct {
	Cores int `json:"cores"`

	// Policy names the scheduling policy in padcsim's -policy vocabulary:
	// "padc" is the paper's APS + APD, "demand-first" its rigid baseline,
	// and a "rules:" string such as "rules:critical,rowhit,urgent,fcfs"
	// composes an explicit stack of the priority rules in
	// internal/memctrl/sched for §6-style priority-order ablations. Only
	// padc, padc-rank and demand-first-apd (§6.12's APD under rigid
	// scheduling) enable adaptive prefetch dropping; no-pref also removes
	// the prefetcher.
	Policy string `json:"policy"`

	// Prefetcher names the per-core prefetch engine in padcsim's
	// -prefetcher vocabulary: "stream" (POWER4/5-style) is the paper
	// baseline, "none" disables prefetching.
	Prefetcher string `json:"prefetcher"`

	// Filter optionally wraps the prefetcher with one of the §6.12
	// comparison mechanisms: "" or "none", "ddpf" (dynamic data prefetch
	// filtering) or "fdp" (feedback-directed prefetching).
	Filter string `json:"filter"`

	Urgency bool `json:"urgency"` // priority rule 3 (boost demands of inaccurate cores)

	// MemSide enables the DROPLET-style memory-side prefetch path: each
	// memory controller generates same-row next-line candidates from the
	// demand stream it admits and drains them into idle row-hit windows,
	// gated and APD-aged by its tier's memory-side accuracy meter.
	MemSide bool `json:"memside"`

	Channels    int    `json:"channels"`      // independent memory controllers
	Banks       int    `json:"banks"`         // banks per channel
	RowBufferKB uint64 `json:"row_buffer_kb"` // DRAM row-buffer size per bank

	// Topology selects the memory wiring: "" or "flat" (default, one
	// domain holding Channels channels), a named preset such as
	// "far-tier" (near domain at Channels channels plus a one-channel
	// pooled tier behind a 256-cycle link), or an inline JSON topology
	// spec (a string starting with "{"; see internal/topology). Presets
	// are resolved against Channels. topology.Names lists the presets.
	Topology    string `json:"topology"`
	L2KB        uint64 `json:"l2_kb"` // last-level cache per core (or total when SharedL2)
	SharedL2    bool   `json:"shared_l2"`
	Permutation bool   `json:"permutation"` // permutation-based bank interleaving
	Runahead    bool   `json:"runahead"`

	// RefreshMode enables the DRAM maintenance engine: "" or "off"
	// (default, no refresh), "per-bank" (staggered REFpb, tRFCpb per
	// bank), or "all-bank" (rank-wide REF, tRFC across every bank). The
	// engine follows the JEDEC postpone/pull-in credit window (up to 8
	// refreshes either way) with a forced-refresh deadline when credits
	// run out.
	RefreshMode string `json:"refresh_mode"`

	// PagePolicy selects row-buffer management: "" or "open" (default),
	// "closed", or "adaptive" (per-bank keep-open/precharge predictor
	// trained on recent row-buffer outcomes).
	PagePolicy string `json:"page_policy"`

	TargetInsts uint64 `json:"target_insts"` // instructions each core retires before stats freeze

	// Telemetry, when non-nil, instruments the run: counters, epoch time
	// series and trace events land in it (export with its WriteCSV /
	// WriteJSONL / WriteChromeTraceWith methods). Nil keeps the simulator
	// on the uninstrumented fast path.
	Telemetry *telemetry.Telemetry `json:"-"`

	// Flight, when non-nil, is the bank-state flight recorder: bounded
	// per-epoch × per-bank accounting of row outcomes, open/close
	// transitions, demand/prefetch issues, refresh interference and
	// scheduler rule-win attribution (export with its WriteCSV /
	// WriteJSONL / ChromeCounters / Summary methods).
	Flight *flight.Recorder `json:"-"`

	// Lifecycle, when non-nil, traces every memory request end to end
	// (enqueue, promotion, issue, completion/drop) into per-core
	// queue-wait/service breakdowns and a sampled span reservoir (export
	// with its WriteCSV / WriteJSONL / BreakdownTable methods or fold its
	// spans into a Chrome trace).
	Lifecycle *lifecycle.Tracer `json:"-"`

	// Profile enables the cycle-accounting profiler: each core cycle is
	// attributed to exactly one bucket (retire, demand-miss, mshr-full,
	// compute, idle) and reported per core.
	Profile bool `json:"-"`
}

// DefaultMachine returns the paper's baseline machine for ncores in
// {1, 2, 4, 8}, running the full PADC (APS + APD + urgency).
func DefaultMachine(ncores int) Machine {
	base := Baseline(ncores)
	return Machine{
		Cores:       ncores,
		Policy:      "padc",
		Prefetcher:  "stream",
		Urgency:     true,
		Channels:    1,
		Banks:       base.DRAM.Banks,
		RowBufferKB: base.DRAM.RowBytes >> 10,
		L2KB:        base.L2.Bytes >> 10,
		TargetInsts: base.TargetInsts,
	}
}

// Config lowers the machine onto a simulator config, parsing each name
// with the table of the package that owns its kind. The workload is left
// empty; Run validates the rest.
func (m Machine) Config() (Config, error) {
	if m.Cores < 1 {
		return Config{}, fmt.Errorf("sim: need at least one core, got %d", m.Cores)
	}
	cfg := Baseline(m.Cores)
	pf, err := ParsePrefetcher(m.Prefetcher)
	if err != nil {
		return Config{}, err
	}
	cfg.Prefetcher = pf
	// After the prefetcher: no-pref removes it.
	if err := ApplyPolicy(&cfg, m.Policy); err != nil {
		return Config{}, err
	}
	if cfg.Filter, err = ParseFilter(m.Filter); err != nil {
		return Config{}, err
	}
	cfg.PADC.EnableUrgency = m.Urgency
	cfg.MemSide = m.MemSide

	cfg.DRAM.Channels = m.Channels
	cfg.DRAM.Banks = m.Banks
	cfg.DRAM.RowBytes = m.RowBufferKB << 10
	cfg.L2.Bytes = m.L2KB << 10
	cfg.SharedL2 = m.SharedL2
	if m.SharedL2 {
		cfg.L2.Ways = 4 * m.Cores
		cfg.MSHR = cfg.BufferSlots
	}
	cfg.DRAM.Permutation = m.Permutation
	if cfg.DRAM.Refresh.Mode, err = refresh.ParseMode(m.RefreshMode); err != nil {
		return Config{}, err
	}
	if cfg.DRAM.Page, err = dram.ParsePagePolicy(m.PagePolicy); err != nil {
		return Config{}, err
	}
	cfg.Core.Runahead = m.Runahead
	if cfg.Topology, err = topology.Resolve(strings.TrimSpace(m.Topology), cfg.DRAM.Channels); err != nil {
		return Config{}, err
	}
	cfg.TargetInsts = m.TargetInsts
	cfg.Telemetry = m.Telemetry
	cfg.Flight = m.Flight
	cfg.Lifecycle = m.Lifecycle
	cfg.Profile = m.Profile
	return cfg, nil
}

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

// ResolvedConfig is the fully-lowered view of a Machine: every default
// filled in, every enum reduced to its canonical spelling, and the
// scheduling policy expanded into the rule stack it runs as. padcsim
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

// Describe lowers the machine exactly as Config does and reports the
// resolved view, or the configuration error Config returns.
func (m Machine) Describe() (ResolvedConfig, error) {
	cfg, err := m.Config()
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
		r := cfg.DRAM.Refresh
		rc.DRAM.Refresh = ResolvedRefresh{
			Mode:        r.Mode.String(),
			TREFI:       r.TREFI,
			TRFC:        r.TRFC,
			TRFCpb:      r.TRFCpb,
			MaxPostpone: r.MaxPostpone,
		}
	}
	topo := cfg.topo()
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

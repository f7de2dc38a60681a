// Package sim wires the substrates — cores, caches, prefetchers, memory
// controllers and DRAM — into the full CMP system of the paper's Tables 3
// and 4, and drives the cycle loop.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"padc/internal/cache"
	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/memctrl"
	"padc/internal/memctrl/sched"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// PrefetcherKind selects the per-core prefetch engine.
type PrefetcherKind int

const (
	PFNone PrefetcherKind = iota
	PFStream
	PFStride
	PFCDC
	PFMarkov
	PFDSPatch
)

// prefetcherNames is the PrefetcherKind name table String and
// ParsePrefetcher share.
var prefetcherNames = [...]string{
	PFNone:    "none",
	PFStream:  "stream",
	PFStride:  "stride",
	PFCDC:     "cdc",
	PFMarkov:  "markov",
	PFDSPatch: "dspatch",
}

// String implements fmt.Stringer.
func (k PrefetcherKind) String() string { return nameOf(prefetcherNames[:], int(k), "PrefetcherKind") }

// ParsePrefetcher maps a PrefetcherNames spelling onto its kind.
func ParsePrefetcher(s string) (PrefetcherKind, error) {
	i, err := lookup(prefetcherNames[:], "prefetcher", s)
	return PrefetcherKind(i), err
}

// PrefetcherNames returns the accepted ParsePrefetcher vocabulary, sorted.
func PrefetcherNames() []string {
	out := append([]string(nil), prefetcherNames[:]...)
	sort.Strings(out)
	return out
}

// nameOf returns entry i of a kind's name table, or kind(i) when i is out
// of range (which no lookup accepts, so Validate rejects it).
func nameOf(names []string, i int, kind string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", kind, i)
}

// lookup returns the index of s in a kind's name table.
func lookup(names []string, kind, s string) (int, error) {
	for i, n := range names {
		if n == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown %s %q (known: %s)", kind, s, strings.Join(names, ", "))
}

// Kernel selects the main-loop execution strategy. Both kernels simulate
// the same machine cycle for cycle and must produce identical results —
// the lockstep differential suite in kernel_test.go enforces it.
type Kernel int

const (
	// KernelEvents is the cycle-skipping event kernel (the default): every
	// component reports its next interesting cycle and the loop jumps to
	// the minimum, turning per-cycle stall accounting into per-interval
	// arithmetic.
	KernelEvents Kernel = iota
	// KernelStepped is the retained cycle-by-cycle reference loop the
	// event kernel is differentially tested against.
	KernelStepped
)

// kernelNames is the Kernel name table String and ParseKernel share.
var kernelNames = [...]string{KernelEvents: "events", KernelStepped: "stepped"}

// String implements fmt.Stringer.
func (k Kernel) String() string { return nameOf(kernelNames[:], int(k), "Kernel") }

// ParseKernel maps the configuration-surface spellings onto a Kernel. The
// empty string is KernelEvents, so zero-valued configs take the fast path.
func ParseKernel(s string) (Kernel, error) {
	if s == "" {
		return KernelEvents, nil
	}
	i, err := lookup(kernelNames[:], "kernel", s)
	return Kernel(i), err
}

// KernelNames returns the accepted ParseKernel vocabulary.
func KernelNames() []string { return append([]string(nil), kernelNames[:]...) }

// FilterKind optionally wraps the prefetcher with a §6.12 comparison
// mechanism.
type FilterKind int

const (
	FilterNone FilterKind = iota
	FilterDDPF
	FilterFDP
)

// filterNames is the FilterKind name table String and ParseFilter share.
var filterNames = [...]string{
	FilterNone: "none",
	FilterDDPF: "ddpf",
	FilterFDP:  "fdp",
}

// String implements fmt.Stringer.
func (k FilterKind) String() string { return nameOf(filterNames[:], int(k), "FilterKind") }

// ParseFilter maps a filter name onto its kind. The empty string is
// FilterNone, so configs that never mention a filter run without one.
func ParseFilter(s string) (FilterKind, error) {
	if s == "" {
		return FilterNone, nil
	}
	i, err := lookup(filterNames[:], "filter", s)
	return FilterKind(i), err
}

// memSideNames is the memory-side prefetch switch's name table: entry 1
// turns Config.MemSide on.
var memSideNames = [...]string{"off", "on"}

// ParseMemSide maps a memory-side switch spelling onto Config.MemSide.
// The empty string is off, so sweeps that never mention it run without.
func ParseMemSide(s string) (bool, error) {
	if s == "" {
		return false, nil
	}
	i, err := lookup(memSideNames[:], "memside value", s)
	return i == 1, err
}

// policies is the sweep and CLI policy vocabulary: each name's mutation of
// a baseline config. Every name but padc, padc-rank and demand-first-apd
// turns APD off, so a grid isolates the scheduling order under study.
var policies = map[string]func(*Config){
	"no-pref": func(c *Config) {
		c.Prefetcher = PFNone
		c.PADC.EnableAPD = false
	},
	"demand-first": func(c *Config) {
		c.Policy = memctrl.DemandFirst
		c.PADC.EnableAPD = false
	},
	// APD without APS: adaptive dropping under rigid demand-first
	// scheduling (§6.12).
	"demand-first-apd": func(c *Config) { c.Policy = memctrl.DemandFirst },
	"equal": func(c *Config) {
		c.Policy = memctrl.DemandPrefEqual
		c.PADC.EnableAPD = false
	},
	"prefetch-first": func(c *Config) {
		c.Policy = memctrl.PrefetchFirst
		c.PADC.EnableAPD = false
	},
	"aps": func(c *Config) {
		c.Policy = memctrl.APS
		c.PADC.EnableAPD = false
	},
	"padc":      func(c *Config) { c.Policy = memctrl.APS },
	"padc-rank": func(c *Config) { c.Policy = memctrl.APSRank },
}

// ApplyPolicy applies the named policy to c: one of PolicyNames, or an
// explicit rule stack such as "rules:critical,rowhit,urgent,fcfs" (APD
// off, like the other scheduling-only policies). no-pref removes the
// prefetcher, so choose the prefetcher first.
func ApplyPolicy(c *Config, name string) error {
	if apply, ok := policies[name]; ok {
		apply(c)
		return nil
	}
	if !strings.HasPrefix(name, sched.Prefix) {
		return fmt.Errorf("sim: unknown policy %q (known: %s; or %s<list> rule stacks)",
			name, strings.Join(PolicyNames(), ", "), sched.Prefix)
	}
	if _, err := sched.Parse(name); err != nil {
		return err
	}
	c.Rules = name
	c.PADC.EnableAPD = false
	return nil
}

// PolicyNames returns the ApplyPolicy vocabulary, sorted; "rules:<list>"
// stacks are accepted besides.
func PolicyNames() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Config describes one simulated system and run.
type Config struct {
	Cores int // cores the system is provisioned for (resource sizing)
	Core  cpu.Config

	L1       cache.Config // L1.Bytes == 0 disables the L1
	L2       cache.Config // per core, or total when SharedL2
	SharedL2 bool
	MSHR     int // entries per last-level cache

	DRAM dram.Config
	// Topology, when non-nil, wires the machine as multiple memory domains
	// (per-domain channel counts, link latencies, timing overrides; see
	// internal/topology). DRAM then supplies the shared geometry — banks,
	// row/line size, tick period, refresh — while each domain's channel
	// count comes from the topology. Nil is the flat machine: one domain
	// holding DRAM.Channels channels at link distance zero, byte-identical
	// to the pre-topology simulator.
	Topology    *topology.Topology
	BufferSlots int // memory request buffer entries per controller
	Policy      memctrl.Policy
	// Rules, when non-empty, overrides Policy with an explicit scheduling
	// rule stack: a legacy alias ("aps") or a "rules:" list such as
	// "rules:critical,rowhit,urgent,fcfs" (see internal/memctrl/sched).
	// Priority-order ablations vary this string instead of adding enum
	// values.
	Rules string
	PADC  core.Config

	Prefetcher PrefetcherKind
	Filter     FilterKind

	// MemSide enables the DROPLET-style memory-side prefetch path: each
	// controller generates same-row next-line candidates from the demand
	// stream it admits and drains them into idle row-hit windows, gated
	// and aged by the tier's PADC memory-side accuracy. Off by default;
	// a disabled path leaves the machine byte-identical to the
	// pre-memside simulator.
	MemSide bool

	Workload []workload.Profile // profile per core; fewer than Cores leaves the rest idle

	TargetInsts uint64 // instructions each active core must retire
	MaxCycles   uint64 // safety bound; 0 derives one from TargetInsts

	// Kernel selects the main-loop strategy: KernelEvents (the zero value)
	// skips provably-inert cycle runs, KernelStepped executes every cycle.
	// Results are identical either way.
	Kernel Kernel

	TrackServiceHist   bool // Figure 4(a) service-time histograms
	TrackAccuracyTrace bool // Figure 4(b) per-interval PAR of core 0

	// Telemetry, when non-nil, receives the run's metric registrations,
	// epoch samples (every Telemetry.EpochCycles() cycles) and trace
	// events; see internal/telemetry. Nil — the default — disables all
	// instrumentation, leaving the hot path with only nil compares.
	Telemetry *telemetry.Telemetry

	// Flight, when non-nil, is the bank-state flight recorder: bounded
	// per-epoch × per-bank accounting of row outcomes, open/close
	// transitions, demand/prefetch issues, refresh interference and
	// rule-win attribution; see internal/telemetry/flight. The system
	// configures its geometry, attaches it to every controller, and
	// rotates epochs in the run loop. Nil — the default — costs one
	// pointer compare at each hook.
	Flight *flight.Recorder

	// Lifecycle, when non-nil, receives one span per completed or dropped
	// memory request (queue-wait vs. service decomposition, request class,
	// row outcome); see internal/telemetry/lifecycle. Nil disables span
	// tracing at one pointer compare per request retirement.
	Lifecycle *lifecycle.Tracer

	// Profile enables per-core cycle accounting: every core cycle is
	// attributed to exactly one cpu.CycleClass bucket, snapshotted into
	// stats.CoreResult.Attribution at the core's instruction target.
	Profile bool
}

// Baseline returns the paper's baseline system for ncores in {1, 2, 4, 8}
// (Tables 3 and 4): per-core 32KB L1 and 512KB 8-way L2 (1MB on a single
// core), stream prefetcher, one DDR3 channel with 8 banks and 4KB rows,
// and 64/64/128/256 request-buffer and MSHR entries.
func Baseline(ncores int) Config {
	l2Bytes := uint64(512 << 10)
	if ncores == 1 {
		l2Bytes = 1 << 20
	}
	buffer := map[int]int{1: 64, 2: 64, 4: 128, 8: 256}[ncores]
	if buffer == 0 {
		buffer = 32 * ncores
	}
	return Config{
		Cores: ncores,
		Core:  cpu.DefaultConfig(),
		L1:    cache.Config{Bytes: 32 << 10, Ways: 4, LineBytes: 64, HitCycles: 2},
		L2:    cache.Config{Bytes: l2Bytes, Ways: 8, LineBytes: 64, HitCycles: 15},
		MSHR:  buffer / ncores,

		DRAM:        dram.DefaultConfig(),
		BufferSlots: buffer,
		Policy:      memctrl.DemandFirst,
		PADC:        core.DefaultConfig(),

		Prefetcher:  PFStream,
		TargetInsts: 500_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core, got %d", c.Cores)
	}
	if len(c.Workload) > c.Cores {
		return fmt.Errorf("sim: %d workloads for %d cores", len(c.Workload), c.Cores)
	}
	if len(c.Workload) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	if c.L1.Bytes != 0 {
		if err := c.L1.Validate(); err != nil {
			return err
		}
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	if c.BufferSlots < 1 {
		return fmt.Errorf("sim: request buffer needs at least one slot")
	}
	if c.MSHR < 1 {
		return fmt.Errorf("sim: MSHR needs at least one entry")
	}
	if _, err := memctrl.ResolveStack(c.Policy, c.Rules); err != nil {
		return err
	}
	// An out-of-range kind prints as "Kind(n)", which no name table holds.
	if _, err := ParsePrefetcher(c.Prefetcher.String()); err != nil {
		return err
	}
	if _, err := ParseFilter(c.Filter.String()); err != nil {
		return err
	}
	if c.TargetInsts == 0 {
		return fmt.Errorf("sim: TargetInsts must be positive")
	}
	if _, err := ParseKernel(c.Kernel.String()); err != nil {
		return err
	}
	return nil
}

// topo returns the effective topology: the configured one, or the flat
// single-domain layout over DRAM.Channels.
func (c Config) topo() topology.Topology {
	if c.Topology != nil {
		return *c.Topology
	}
	return topology.Flat(c.DRAM.Channels)
}

// maxCycles returns the safety bound for the run.
func (c Config) maxCycles() uint64 {
	if c.MaxCycles != 0 {
		return c.MaxCycles
	}
	m := 400 * c.TargetInsts
	if m < 20_000_000 {
		m = 20_000_000
	}
	return m
}

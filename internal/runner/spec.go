// Package runner is the parallel sweep engine behind the paper-shaped
// experiment grids: it expands a declarative Spec (a cartesian grid of
// scheduling policy, prefetcher, PADC-threshold and workload parameters)
// into an ordered job list, executes the jobs on a bounded worker pool,
// and merges the per-job results into deterministic aggregates — the same
// output bytes regardless of worker count.
//
// Determinism comes from three properties: every job is a pure function of
// its expanded configuration (the simulator itself is deterministic),
// random workload mixes are drawn from per-index seeds derived from the
// spec's root seed (never from execution order), and the merge sorts on
// the stable job key. Wall-clock measurements are kept out of the
// exported artifacts (RunStats is reported separately) so CSV/JSON output
// is byte-comparable across runs and machines.
package runner

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"padc/internal/core"
	"padc/internal/sim"
	"padc/internal/workload"
)

// Bounds on an expanded sweep, enforced by Validate so a hostile or
// fuzzed spec cannot expand into unbounded work.
const (
	MaxJobs  = 4096 // cartesian-product ceiling
	MaxMixes = 256  // random workload draws per spec
	MaxCores = 16   // cores per simulated system
)

// Spec declares one sweep: every non-empty axis multiplies the grid.
// Zero-valued fields fall back to the documented defaults, so the minimal
// useful spec is `{"mixes": 4}`.
type Spec struct {
	Name string `json:"name,omitempty"` // sweep label (default "sweep")
	Seed uint64 `json:"seed,omitempty"` // root seed for random mix draws

	Cores int    `json:"cores,omitempty"` // cores per system (default 4)
	Insts uint64 `json:"insts,omitempty"` // instructions per core (default 100000)

	// Policies names the scheduling policies to compare: sim.PolicyNames
	// or "rules:<list>" rule stacks. Default: demand-first, aps, padc.
	Policies []string `json:"policies,omitempty"`

	// Prefetchers names the prefetch engines (sim.PrefetcherNames).
	// Default: stream.
	Prefetchers []string `json:"prefetchers,omitempty"`

	// MemSide optionally sweeps the DRAM-side prefetch path: "off" (or "")
	// keeps prefetching core-side only, "on" attaches the memory-side
	// engine to every controller. Default: off, matching the historical
	// simulator behavior.
	MemSide []string `json:"memside,omitempty"`

	// PromotionThresholds optionally sweeps the APS promotion threshold
	// (paper default 0.85); 0 entries leave the default.
	PromotionThresholds []float64 `json:"promotion_thresholds,omitempty"`

	// DropCycles optionally sweeps a flat APD drop threshold replacing the
	// Table 6 ladder; a 0 entry keeps the default ladder.
	DropCycles []uint64 `json:"drop_cycles,omitempty"`

	// Refresh optionally sweeps the DRAM maintenance engine: "off" (or ""),
	// "per-bank", "all-bank". Default: off, matching the historical
	// simulator behavior.
	Refresh []string `json:"refresh,omitempty"`

	// PagePolicies optionally sweeps row-buffer management: "open" (or ""),
	// "closed", "adaptive". Default: open.
	PagePolicies []string `json:"page_policies,omitempty"`

	// Topologies optionally sweeps the memory wiring by preset name:
	// "flat" (or "") keeps the single-domain layout, "far-tier" adds a
	// one-channel pooled tier behind a long link (see internal/topology).
	// Default: flat, matching the historical simulator behavior.
	Topologies []string `json:"topologies,omitempty"`

	// Workloads lists explicit benchmark mixes (each inner list is one mix,
	// one benchmark per core). Mixes additionally draws that many random
	// Cores-wide mixes from the extended suite using the root seed. At
	// least one of the two must yield a mix.
	Workloads [][]string `json:"workloads,omitempty"`
	Mixes     int        `json:"mixes,omitempty"`

	// Kernel selects the simulation loop every job runs under: "" or
	// "events" (the cycle-skipping default) or "stepped" (the
	// cycle-by-cycle reference). It is not a grid axis and never appears
	// in job keys — both kernels produce byte-identical artifacts, which
	// the differential suite verifies.
	Kernel string `json:"kernel,omitempty"`
}

// ParseSpec decodes and validates a JSON sweep spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("runner: parsing sweep spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// withDefaults returns the spec with every zero-valued axis filled in.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "sweep"
	}
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.Insts == 0 {
		s.Insts = 100_000
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"demand-first", "aps", "padc"}
	}
	if len(s.Prefetchers) == 0 {
		s.Prefetchers = []string{"stream"}
	}
	if len(s.PromotionThresholds) == 0 {
		s.PromotionThresholds = []float64{0}
	}
	if len(s.DropCycles) == 0 {
		s.DropCycles = []uint64{0}
	}
	// The refresh and page axes normalize to "" (their disabled defaults)
	// so job keys and artifacts stay byte-identical for specs that never
	// mention them.
	s.Refresh = normalizeAxis(s.Refresh, "off")
	s.PagePolicies = normalizeAxis(s.PagePolicies, "open")
	s.Topologies = normalizeAxis(s.Topologies, "flat")
	s.MemSide = normalizeAxis(s.MemSide, "off")
	return s
}

// normalizeAxis fills an empty axis with the single default value and
// rewrites the default's explicit spelling to "" without mutating the
// caller's slice.
func normalizeAxis(vals []string, defaultName string) []string {
	if len(vals) == 0 {
		return []string{""}
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		if v != defaultName {
			out[i] = v
		}
	}
	return out
}

// Validate reports the first problem with the spec: unknown names on any
// machine axis, unknown benchmarks, out-of-range axes, two grid points
// sharing a key, or a grid exceeding MaxJobs.
func (s Spec) Validate() error {
	_, err := s.withDefaults().machines()
	return err
}

// Point is one grid coordinate in the spec's spellings, the explicit
// defaults normalized to "" (or 0) so they never appear in keys.
type Point struct {
	Policy     string   `json:"policy"`
	Prefetcher string   `json:"prefetcher"`
	Promotion  float64  `json:"promotion,omitempty"` // 0 = paper default
	Drop       uint64   `json:"drop,omitempty"`      // 0 = Table 6 ladder
	Refresh    string   `json:"refresh,omitempty"`   // "" = off
	Page       string   `json:"page,omitempty"`      // "" = open
	Topology   string   `json:"topology,omitempty"`  // "" = flat
	MemSide    string   `json:"memside,omitempty"`   // "" = off
	Mix        string   `json:"mix"`                 // mix label ("swim+art" or "rnd03")
	Workloads  []string `json:"workloads"`
}

// Key renders the canonical "policy=…/pf=…/…/mix=…" coordinates the merge
// sorts on. Default-valued axes are omitted, so keys (and sort order)
// from sweeps predating an axis never change.
func (p Point) Key() string { return p.machineKey() + "/mix=" + p.Mix }

// machineKey is Key without the mix: the coordinates of the machine the
// point runs on.
func (p Point) machineKey() string {
	parts := []string{"policy=" + p.Policy, "pf=" + p.Prefetcher}
	if p.Promotion > 0 {
		parts = append(parts, fmt.Sprintf("promo=%.2f", p.Promotion))
	}
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%d", p.Drop))
	}
	if p.Refresh != "" {
		parts = append(parts, "refresh="+p.Refresh)
	}
	if p.Page != "" {
		parts = append(parts, "page="+p.Page)
	}
	if p.Topology != "" {
		parts = append(parts, "topo="+p.Topology)
	}
	if p.MemSide != "" {
		parts = append(parts, "memside="+p.MemSide)
	}
	return strings.Join(parts, "/")
}

// Job is one expanded configuration: a stable index and key, its grid
// coordinates, and the fully-resolved simulator config.
type Job struct {
	Index int    // position in expansion order (stable given the spec)
	Key   string // Point.Key()
	Seed  uint64 // per-job seed: splitmix(root seed, Index)
	Point

	Config sim.Config
}

// splitmix is SplitMix64's finalizer: the per-index seed derivation for
// jobs and random mixes.
func splitmix(seed, x uint64) uint64 {
	x += seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// axis is one machine axis of the grid: its length and a setter writing
// its i-th value into a point.
type axis struct {
	n   int
	set func(p *Point, i int)
}

// axes lists the machine axes of a defaulted spec in grid order, slowest
// first; the mix axis varies fastest of all.
func (d Spec) axes() []axis {
	return []axis{
		{len(d.Policies), func(p *Point, i int) { p.Policy = d.Policies[i] }},
		{len(d.Prefetchers), func(p *Point, i int) { p.Prefetcher = d.Prefetchers[i] }},
		{len(d.PromotionThresholds), func(p *Point, i int) { p.Promotion = d.PromotionThresholds[i] }},
		{len(d.DropCycles), func(p *Point, i int) { p.Drop = d.DropCycles[i] }},
		{len(d.Refresh), func(p *Point, i int) { p.Refresh = d.Refresh[i] }},
		{len(d.PagePolicies), func(p *Point, i int) { p.Page = d.PagePolicies[i] }},
		{len(d.Topologies), func(p *Point, i int) { p.Topology = d.Topologies[i] }},
		{len(d.MemSide), func(p *Point, i int) { p.MemSide = d.MemSide[i] }},
	}
}

// machine is one lowered machine point: every coordinate but the mix,
// and the simulator config each of its jobs copies.
type machine struct {
	point Point
	cfg   sim.Config
}

// machines validates a defaulted spec and lowers each machine point of
// its grid once, in grid order. It checks mixes without drawing them.
func (d Spec) machines() ([]machine, error) {
	if d.Cores < 1 || d.Cores > MaxCores {
		return nil, fmt.Errorf("runner: cores must be 1..%d, got %d", MaxCores, d.Cores)
	}
	if d.Mixes < 0 || d.Mixes > MaxMixes {
		return nil, fmt.Errorf("runner: mixes must be 0..%d, got %d", MaxMixes, d.Mixes)
	}
	for _, th := range d.PromotionThresholds {
		if th < 0 || th > 1 {
			return nil, fmt.Errorf("runner: promotion threshold must be in [0,1], got %g", th)
		}
	}
	for _, t := range d.Topologies {
		if strings.TrimSpace(t) != t || strings.HasPrefix(t, "{") {
			return nil, fmt.Errorf("runner: sweep topologies must be preset names, got %q", t)
		}
	}
	for mi, mix := range d.Workloads {
		if len(mix) == 0 || len(mix) > d.Cores {
			return nil, fmt.Errorf("runner: workload mix %d needs 1..%d benchmarks, got %d", mi, d.Cores, len(mix))
		}
		for _, name := range mix {
			if _, err := workload.ByName(name); err != nil {
				return nil, err
			}
		}
	}
	nmixes := len(d.Workloads) + d.Mixes
	if nmixes == 0 {
		return nil, fmt.Errorf("runner: spec yields no workload mixes (set workloads or mixes)")
	}
	axes := d.axes()
	n := nmixes
	for _, a := range axes {
		n *= a.n
	}
	if n > MaxJobs {
		return nil, fmt.Errorf("runner: sweep expands to %d jobs, limit %d", n, MaxJobs)
	}

	points := []Point{{}}
	for _, a := range axes {
		crossed := make([]Point, 0, len(points)*a.n)
		for _, p := range points {
			for i := 0; i < a.n; i++ {
				a.set(&p, i)
				crossed = append(crossed, p)
			}
		}
		points = crossed
	}
	out := make([]machine, len(points))
	seen := make(map[string]bool, len(points))
	for i, p := range points {
		key := p.machineKey()
		if seen[key] {
			return nil, fmt.Errorf("runner: grid repeats the machine %q", key)
		}
		seen[key] = true
		cfg, err := d.lower(p)
		if err != nil {
			return nil, fmt.Errorf("runner: %v", err)
		}
		out[i] = machine{point: p, cfg: cfg}
	}
	return out, nil
}

// lower builds one machine point through sim.Machine.Config, then applies
// the two sweep-only PADC knobs.
func (d Spec) lower(p Point) (sim.Config, error) {
	m := sim.DefaultMachine(d.Cores)
	m.Policy, m.Prefetcher = p.Policy, p.Prefetcher
	m.RefreshMode, m.PagePolicy, m.Topology = p.Refresh, p.Page, p.Topology
	m.TargetInsts, m.Kernel = d.Insts, d.Kernel
	var err error
	if m.MemSide, err = sim.ParseMemSide(p.MemSide); err != nil {
		return sim.Config{}, err
	}
	cfg, err := m.Config()
	if err != nil {
		return sim.Config{}, err
	}
	if p.Promotion > 0 {
		cfg.PADC.PromotionThreshold = p.Promotion
	}
	if p.Drop > 0 {
		cfg.PADC.DropLadder = []core.DropLevel{{AccuracyBelow: 1.01, Cycles: p.Drop}}
	}
	return cfg, nil
}

// Expand materializes the spec's grid in deterministic order: mixes vary
// fastest, then memside, topology, page policy, refresh, drop threshold,
// promotion threshold, prefetcher, and policy slowest.
func (s Spec) Expand() ([]Job, error) {
	d := s.withDefaults()
	machines, err := d.machines()
	if err != nil {
		return nil, err
	}

	type mixEntry struct {
		label string
		profs []workload.Profile
	}
	var mixes []mixEntry
	for _, names := range d.Workloads {
		profs := make([]workload.Profile, len(names))
		for i, n := range names {
			profs[i] = workload.MustByName(n)
		}
		mixes = append(mixes, mixEntry{label: strings.Join(names, "+"), profs: profs})
	}
	for i := 0; i < d.Mixes; i++ {
		// Each random mix is drawn from its own index-derived seed, so mix
		// i is the same workload set no matter how many mixes precede it or
		// which worker later runs it.
		profs := workload.Mixes(1, d.Cores, splitmix(d.Seed, uint64(i)))[0]
		mixes = append(mixes, mixEntry{label: fmt.Sprintf("rnd%02d", i), profs: profs})
	}

	jobs := make([]Job, 0, len(machines)*len(mixes))
	for _, m := range machines {
		for _, mx := range mixes {
			p := m.point
			p.Mix = mx.label
			p.Workloads = make([]string, len(mx.profs))
			for i, prof := range mx.profs {
				p.Workloads[i] = prof.Name
			}
			// Each job owns its config's slices and topology.
			cfg := m.cfg
			cfg.PADC.DropLadder = slices.Clone(cfg.PADC.DropLadder)
			if cfg.Topology != nil {
				t := *cfg.Topology
				t.Domains = slices.Clone(t.Domains)
				cfg.Topology = &t
			}
			cfg.Workload = slices.Clone(mx.profs)
			idx := len(jobs)
			jobs = append(jobs, Job{
				Index:  idx,
				Key:    p.Key(),
				Seed:   splitmix(d.Seed, uint64(idx)|1<<32),
				Point:  p,
				Config: cfg,
			})
		}
	}
	return jobs, nil
}

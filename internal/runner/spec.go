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
	"reflect"
	"slices"
	"sort"
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

	// Axes optionally sweeps any other sim.Machine field, named by its
	// JSON tag: {"channels": [2], "permutation": [false, true]}. Generic
	// axes cross after the named ones above, in Machine field order, and
	// add a "field=value" key segment unless the value is the
	// DefaultMachine's. A field with a named axis, and cores, target_insts
	// and kernel, has one spelling only and is no generic axis.
	Axes map[string][]json.RawMessage `json:"axes,omitempty"`

	// Workloads lists explicit benchmark mixes (each inner list is one mix,
	// one benchmark per core). Mixes additionally draws that many random
	// Cores-wide mixes from the extended suite using the root seed. At
	// least one of the two must yield a mix.
	Workloads [][]string `json:"workloads,omitempty"`
	Mixes     int        `json:"mixes,omitempty"`

	// Alone, when set, adds the paper's IPC_alone baselines (§6). It is a
	// sim.Machine overlay in the JSON names, such as {"policy":
	// "demand-first"}: each grid machine with the overlay written over it,
	// and the promotion and drop knobs reset, is that machine's baseline.
	// Expand appends one 1-benchmark job per distinct (baseline machine,
	// benchmark) after the grid jobs, keyed "alone/<machine>/mix=<bench>",
	// and the merge fills every grid row's WS, HS, UF and Speedup from
	// them. Default: absent, no baselines.
	Alone json.RawMessage `json:"alone,omitempty"`

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
		out[i] = normalize(v, defaultName)
	}
	return out
}

// Validate reports the first problem with the spec: unknown names on any
// machine axis, unknown benchmarks, out-of-range axes, two grid points
// sharing a key, a bad alone overlay, or more than MaxJobs jobs.
func (s Spec) Validate() error {
	if s.Alone != nil {
		// Baseline jobs count toward MaxJobs, and counting them draws the
		// random mixes.
		_, err := s.Expand()
		return err
	}
	_, err := s.withDefaults().machines()
	return err
}

// Point is one grid coordinate in the named axes' spellings, the
// explicit defaults normalized to "" (or 0) so they never appear in keys.
// Generic axis values appear only in the job key.
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

// namedKey renders the named axes' "policy=…/pf=…/…" key segments.
// Default-valued axes are omitted, so keys (and sort order) from sweeps
// predating an axis never change.
func (p Point) namedKey() string {
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
	Key   string // "<machine key>/mix=<mix>"; baselines prefix "alone/"
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

// machineField is a sim.Machine field an axis or the alone overlay
// addresses by its JSON name.
type machineField struct {
	name  string
	index int
	typ   reflect.Type
}

// machineFields lists sim.Machine's JSON-named fields in declaration
// order; the observers carry no name.
var machineFields = func() []machineField {
	t := reflect.TypeOf(sim.Machine{})
	var out []machineField
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("json"); name != "-" {
			out = append(out, machineField{name: name, index: i, typ: t.Field(i).Type})
		}
	}
	return out
}()

// spelledFields maps each Machine field the spec sets by other means to
// that spelling. Every other named field is a generic axis.
var spelledFields = map[string]string{
	"cores": "cores", "target_insts": "insts", "kernel": "kernel",
	"policy": "policies", "prefetcher": "prefetchers", "memside": "memside",
	"topology": "topologies", "refresh_mode": "refresh", "page_policy": "page_policies",
}

// isMachineField reports whether a Machine field has the JSON name.
func isMachineField(name string) bool {
	for _, f := range machineFields {
		if f.name == name {
			return true
		}
	}
	return false
}

// genericKey renders the "/field=value" key segments of every generic
// Machine field whose value differs from the DefaultMachine's, in field
// order.
func genericKey(m sim.Machine) string {
	v, def := reflect.ValueOf(m), reflect.ValueOf(sim.DefaultMachine(m.Cores))
	var b strings.Builder
	for _, f := range machineFields {
		if _, spelled := spelledFields[f.name]; spelled {
			continue
		}
		if x := v.Field(f.index).Interface(); x != def.Field(f.index).Interface() {
			fmt.Fprintf(&b, "/%s=%v", f.name, x)
		}
	}
	return b.String()
}

// gridPoint is one machine coordinate while the grid is crossed: the
// named axes' spellings and the machine the generic axes have set.
type gridPoint struct {
	Point
	m sim.Machine
}

// axis is one machine axis of the grid: its length and a setter writing
// its i-th value into a point.
type axis struct {
	n   int
	set func(g *gridPoint, i int)
}

// axes lists the machine axes of a defaulted spec in grid order, slowest
// first: the named axes, then the generic ones in Machine field order.
// The mix axis varies fastest of all.
func (d Spec) axes() ([]axis, error) {
	out := []axis{
		{len(d.Policies), func(g *gridPoint, i int) { g.Policy = d.Policies[i] }},
		{len(d.Prefetchers), func(g *gridPoint, i int) { g.Prefetcher = d.Prefetchers[i] }},
		{len(d.PromotionThresholds), func(g *gridPoint, i int) { g.Promotion = d.PromotionThresholds[i] }},
		{len(d.DropCycles), func(g *gridPoint, i int) { g.Drop = d.DropCycles[i] }},
		{len(d.Refresh), func(g *gridPoint, i int) { g.Refresh = d.Refresh[i] }},
		{len(d.PagePolicies), func(g *gridPoint, i int) { g.Page = d.PagePolicies[i] }},
		{len(d.Topologies), func(g *gridPoint, i int) { g.Topology = d.Topologies[i] }},
		{len(d.MemSide), func(g *gridPoint, i int) { g.MemSide = d.MemSide[i] }},
	}
	names := make([]string, 0, len(d.Axes))
	for name := range d.Axes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !isMachineField(name) {
			return nil, fmt.Errorf("runner: unknown axis %q", name)
		}
		if spelling, ok := spelledFields[name]; ok {
			return nil, fmt.Errorf("runner: axis %q is set by the spec's %q field", name, spelling)
		}
		if len(d.Axes[name]) == 0 {
			return nil, fmt.Errorf("runner: axis %q has no values", name)
		}
	}
	for _, f := range machineFields {
		raws, ok := d.Axes[f.name]
		if !ok {
			continue
		}
		vals := make([]reflect.Value, len(raws))
		for i, raw := range raws {
			v := reflect.New(f.typ)
			if err := json.Unmarshal(raw, v.Interface()); err != nil {
				return nil, fmt.Errorf("runner: axis %q value %s: %v", f.name, raw, err)
			}
			vals[i] = v.Elem()
		}
		out = append(out, axis{len(vals), func(g *gridPoint, i int) {
			reflect.ValueOf(&g.m).Elem().Field(f.index).Set(vals[i])
		}})
	}
	return out, nil
}

// machine is one lowered machine point: every coordinate but the mix,
// its key, the simulator config each of its jobs copies, and, when the
// spec sets Alone, its baseline machine.
type machine struct {
	point Point
	key   string
	cfg   sim.Config
	alone *machine
}

// machines validates a defaulted spec and lowers each machine point of
// its grid once, in grid order, with its baseline when the spec sets
// Alone. It checks mixes without drawing them.
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
	if err := d.checkAlone(); err != nil {
		return nil, err
	}
	axes, err := d.axes()
	if err != nil {
		return nil, err
	}
	n := nmixes
	for _, a := range axes {
		n *= a.n
	}
	if n > MaxJobs {
		return nil, fmt.Errorf("runner: sweep expands to %d jobs, limit %d", n, MaxJobs)
	}

	base := sim.DefaultMachine(d.Cores)
	base.TargetInsts, base.Kernel = d.Insts, d.Kernel
	points := []gridPoint{{m: base}}
	for _, a := range axes {
		crossed := make([]gridPoint, 0, len(points)*a.n)
		for _, g := range points {
			for i := 0; i < a.n; i++ {
				a.set(&g, i)
				crossed = append(crossed, g)
			}
		}
		points = crossed
	}
	out := make([]machine, len(points))
	seen := make(map[string]bool, len(points))
	baselines := map[string]*machine{}
	for i, g := range points {
		key := g.namedKey()
		if len(d.Axes) > 0 {
			key += genericKey(g.m)
		}
		if seen[key] {
			return nil, fmt.Errorf("runner: grid repeats the machine %q", key)
		}
		seen[key] = true
		m, err := g.machine()
		if err != nil {
			return nil, fmt.Errorf("runner: %v", err)
		}
		cfg, err := lower(m, g.Point)
		if err != nil {
			return nil, fmt.Errorf("runner: %v", err)
		}
		out[i] = machine{point: g.Point, key: key, cfg: cfg}
		if d.Alone != nil {
			if out[i].alone, err = baseline(m, d.Alone, baselines); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkAlone checks the spec's alone overlay, when set: a JSON object
// naming Machine fields other than cores, target_insts and kernel.
func (d Spec) checkAlone() error {
	if d.Alone == nil {
		return nil
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(d.Alone, &fields); err != nil || fields == nil {
		return fmt.Errorf("runner: alone must be a machine object, got %s", d.Alone)
	}
	for name := range fields {
		if !isMachineField(name) {
			return fmt.Errorf("runner: alone sets unknown machine field %q", name)
		}
		switch name {
		case "cores", "target_insts", "kernel":
			return fmt.Errorf("runner: alone cannot set %q: a baseline runs on the spec's machine size and kernel", name)
		}
	}
	return nil
}

// baseline returns grid machine m's alone baseline: m with the overlay
// written over it and the sweep-only PADC knobs at their defaults,
// lowered once per distinct key into baselines.
func baseline(m sim.Machine, overlay json.RawMessage, baselines map[string]*machine) (*machine, error) {
	if err := json.Unmarshal(overlay, &m); err != nil {
		return nil, fmt.Errorf("runner: alone overlay: %v", err)
	}
	p := Point{
		Policy:     m.Policy,
		Prefetcher: m.Prefetcher,
		Refresh:    normalize(m.RefreshMode, "off"),
		Page:       normalize(m.PagePolicy, "open"),
		Topology:   normalize(m.Topology, "flat"),
	}
	if m.MemSide {
		p.MemSide = "on"
	}
	key := p.namedKey() + genericKey(m)
	if b, ok := baselines[key]; ok {
		return b, nil
	}
	cfg, err := lower(m, p)
	if err != nil {
		return nil, fmt.Errorf("runner: alone machine %q: %v", key, err)
	}
	b := &machine{point: p, key: key, cfg: cfg}
	baselines[key] = b
	return b, nil
}

// normalize rewrites an axis default's explicit spelling to "".
func normalize(v, defaultName string) string {
	if v == defaultName {
		return ""
	}
	return v
}

// machine writes the named axes' spellings into the point's machine.
func (g gridPoint) machine() (sim.Machine, error) {
	m := g.m
	m.Policy, m.Prefetcher = g.Policy, g.Prefetcher
	m.RefreshMode, m.PagePolicy, m.Topology = g.Refresh, g.Page, g.Topology
	var err error
	m.MemSide, err = sim.ParseMemSide(g.MemSide)
	return m, err
}

// lower builds a machine through sim.Machine.Config, applies the point's
// two sweep-only PADC knobs, and checks the result is a runnable machine.
func lower(m sim.Machine, p Point) (sim.Config, error) {
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
	probe := cfg
	probe.Workload = make([]workload.Profile, 1)
	if err := probe.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// alonePrefix starts every baseline job's key.
const alonePrefix = "alone/"

// aloneKey is the key of the baseline job running bench on machine key.
func aloneKey(machineKey, bench string) string {
	return alonePrefix + machineKey + "/mix=" + bench
}

// Expand materializes the spec's grid in deterministic order: mixes vary
// fastest, then the generic axes (last Machine field fastest), memside,
// topology, page policy, refresh, drop threshold, promotion threshold,
// prefetcher, and policy slowest. With Alone, one job per distinct
// (baseline machine, benchmark) follows, in order of first use.
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
	add := func(key, mix string, p Point, cfg sim.Config, profs []workload.Profile) {
		p.Mix = mix
		p.Workloads = make([]string, len(profs))
		for i, prof := range profs {
			p.Workloads[i] = prof.Name
		}
		// Each job owns its config's slices and topology.
		cfg.PADC.DropLadder = slices.Clone(cfg.PADC.DropLadder)
		if cfg.Topology != nil {
			t := *cfg.Topology
			t.Domains = slices.Clone(t.Domains)
			cfg.Topology = &t
		}
		cfg.Workload = slices.Clone(profs)
		idx := len(jobs)
		jobs = append(jobs, Job{
			Index:  idx,
			Key:    key + "/mix=" + mix,
			Seed:   splitmix(d.Seed, uint64(idx)|1<<32),
			Point:  p,
			Config: cfg,
		})
	}
	for _, m := range machines {
		for _, mx := range mixes {
			add(m.key, mx.label, m.point, m.cfg, mx.profs)
		}
	}
	if d.Alone != nil {
		seen := map[string]bool{}
		for _, m := range machines {
			for _, mx := range mixes {
				for _, prof := range mx.profs {
					key := aloneKey(m.alone.key, prof.Name)
					if seen[key] {
						continue
					}
					seen[key] = true
					add(alonePrefix+m.alone.key, prof.Name, m.alone.point, m.alone.cfg, []workload.Profile{prof})
				}
			}
		}
		if len(jobs) > MaxJobs {
			return nil, fmt.Errorf("runner: sweep expands to %d jobs with its baselines, limit %d", len(jobs), MaxJobs)
		}
	}
	return jobs, nil
}

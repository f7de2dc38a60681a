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
	"strings"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/sim"
	"padc/internal/topology"
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

// Validate reports the first problem with the spec: unknown policy or
// prefetcher names, unknown benchmarks, out-of-range axes, or a grid
// exceeding MaxJobs.
func (s Spec) Validate() error {
	d := s.withDefaults()
	if d.Cores < 1 || d.Cores > MaxCores {
		return fmt.Errorf("runner: cores must be 1..%d, got %d", MaxCores, d.Cores)
	}
	if d.Mixes < 0 || d.Mixes > MaxMixes {
		return fmt.Errorf("runner: mixes must be 0..%d, got %d", MaxMixes, d.Mixes)
	}
	for _, p := range d.Policies {
		if err := sim.ApplyPolicy(&sim.Config{}, p); err != nil {
			return fmt.Errorf("runner: %v", err)
		}
	}
	for _, p := range d.Prefetchers {
		if _, err := sim.ParsePrefetcher(p); err != nil {
			return fmt.Errorf("runner: %v", err)
		}
	}
	for _, th := range d.PromotionThresholds {
		if th < 0 || th > 1 {
			return fmt.Errorf("runner: promotion threshold must be in [0,1], got %g", th)
		}
	}
	for _, r := range d.Refresh {
		if _, err := refresh.ParseMode(r); err != nil {
			return fmt.Errorf("runner: %v", err)
		}
	}
	for _, p := range d.PagePolicies {
		if _, err := dram.ParsePagePolicy(p); err != nil {
			return fmt.Errorf("runner: %v", err)
		}
	}
	for _, t := range d.Topologies {
		// The channel count only scales the preset; any power of two
		// exercises the name lookup, which is what validation is about.
		if _, err := topology.Preset(t, 4); err != nil {
			return fmt.Errorf("runner: %v", err)
		}
	}
	for _, m := range d.MemSide {
		if _, err := parseMemSide(m); err != nil {
			return err
		}
	}
	if _, err := sim.ParseKernel(d.Kernel); err != nil {
		return fmt.Errorf("runner: %v", err)
	}
	for mi, mix := range d.Workloads {
		if len(mix) == 0 || len(mix) > d.Cores {
			return fmt.Errorf("runner: workload mix %d needs 1..%d benchmarks, got %d", mi, d.Cores, len(mix))
		}
		for _, name := range mix {
			if _, err := workload.ByName(name); err != nil {
				return err
			}
		}
	}
	nmixes := len(d.Workloads) + d.Mixes
	if nmixes == 0 {
		return fmt.Errorf("runner: spec yields no workload mixes (set workloads or mixes)")
	}
	n := len(d.Policies) * len(d.Prefetchers) * len(d.PromotionThresholds) * len(d.DropCycles) *
		len(d.Refresh) * len(d.PagePolicies) * len(d.Topologies) * len(d.MemSide) * nmixes
	if n > MaxJobs {
		return fmt.Errorf("runner: sweep expands to %d jobs, limit %d", n, MaxJobs)
	}
	return nil
}

// Job is one expanded configuration: a stable index and key plus the
// fully-resolved simulator config.
type Job struct {
	Index int    // position in expansion order (stable given the spec)
	Key   string // canonical "policy=…/pf=…/…/mix=…" grid coordinates
	Seed  uint64 // per-job seed: splitmix(root seed, Index)

	Policy     string
	Prefetcher string
	Promotion  float64 // 0 = paper default
	Drop       uint64  // 0 = Table 6 ladder
	Refresh    string  // "" = off
	Page       string  // "" = open
	Topology   string  // "" = flat
	MemSide    string  // "" = off
	Mix        string  // mix label ("swim+art" or "rnd03")
	Workloads  []string

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

// Expand materializes the spec's cartesian grid in deterministic order:
// mixes vary fastest, then drop threshold, promotion threshold,
// prefetcher, and policy slowest. The spec must have passed Validate.
func (s Spec) Expand() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := s.withDefaults()
	kernel, _ := sim.ParseKernel(d.Kernel)

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

	var jobs []Job
	for _, pol := range d.Policies {
		for _, pf := range d.Prefetchers {
			pfKind, _ := sim.ParsePrefetcher(pf)
			for _, promo := range d.PromotionThresholds {
				for _, drop := range d.DropCycles {
					for _, rf := range d.Refresh {
						rfMode, _ := refresh.ParseMode(rf)
						for _, page := range d.PagePolicies {
							pagePol, _ := dram.ParsePagePolicy(page)
							for _, topo := range d.Topologies {
								for _, ms := range d.MemSide {
									msOn, _ := parseMemSide(ms)
									for _, mx := range mixes {
										cfg := sim.Baseline(d.Cores)
										cfg.TargetInsts = d.Insts
										cfg.PADC = core.DefaultConfig()
										cfg.Prefetcher = pfKind
										if err := sim.ApplyPolicy(&cfg, pol); err != nil {
											return nil, err
										}
										if promo > 0 {
											cfg.PADC.PromotionThreshold = promo
										}
										if drop > 0 {
											cfg.PADC.DropLadder = []core.DropLevel{{AccuracyBelow: 1.01, Cycles: drop}}
										}
										cfg.DRAM.Refresh.Mode = rfMode
										cfg.DRAM.Page = pagePol
										if topo != "" {
											// Resolved against the baseline channel
											// count so the near tier matches flat.
											t, err := topology.Preset(topo, cfg.DRAM.Channels)
											if err != nil {
												return nil, err
											}
											cfg.Topology = &t
										}
										cfg.MemSide = msOn
										cfg.Kernel = kernel
										cfg.Workload = append([]workload.Profile(nil), mx.profs...)
										idx := len(jobs)
										jobs = append(jobs, Job{
											Index:      idx,
											Key:        jobKey(pol, pf, promo, drop, rf, page, topo, ms, mx.label),
											Seed:       splitmix(d.Seed, uint64(idx)|1<<32),
											Policy:     pol,
											Prefetcher: pf,
											Promotion:  promo,
											Drop:       drop,
											Refresh:    rf,
											Page:       page,
											Topology:   topo,
											MemSide:    ms,
											Mix:        mx.label,
											Workloads:  namesOf(mx.profs),
											Config:     cfg,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

func namesOf(profs []workload.Profile) []string {
	out := make([]string, len(profs))
	for i, p := range profs {
		out[i] = p.Name
	}
	return out
}

// jobKey renders the canonical grid coordinates the merge sorts on.
// Default-valued axes are omitted, so keys (and sort order) from sweeps
// predating an axis never change.
func jobKey(pol, pf string, promo float64, drop uint64, rf, page, topo, ms, mix string) string {
	parts := []string{"policy=" + pol, "pf=" + pf}
	if promo > 0 {
		parts = append(parts, fmt.Sprintf("promo=%.2f", promo))
	}
	if drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%d", drop))
	}
	if rf != "" {
		parts = append(parts, "refresh="+rf)
	}
	if page != "" {
		parts = append(parts, "page="+page)
	}
	if topo != "" {
		parts = append(parts, "topo="+topo)
	}
	if ms != "" {
		parts = append(parts, "memside="+ms)
	}
	parts = append(parts, "mix="+mix)
	return strings.Join(parts, "/")
}

// parseMemSide maps a memside axis value onto the config switch.
func parseMemSide(name string) (bool, error) {
	switch name {
	case "", "off":
		return false, nil
	case "on":
		return true, nil
	default:
		return false, fmt.Errorf("runner: unknown memside value %q (known: off, on)", name)
	}
}

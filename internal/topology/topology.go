// Package topology describes how the physical address space is wired
// across memory domains: named groups of DRAM channels that may sit at
// different distances from the cores (a far pooled-memory tier behind a
// link) or run with different timing parts. A Topology is a declarative
// spec; Steering is its compiled form, a bijection between global line
// addresses and (domain, domain-local line) pairs. The canonical "flat"
// topology — one domain holding every channel at link distance zero —
// steers every address to domain 0 unchanged, so a flat machine is
// byte-identical to the pre-topology wiring.
package topology

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"padc/internal/dram"
)

// Interleave policies. "channel" stripes consecutive rows across the
// global channel list (domains carved out of one stripe), which for a
// single domain reduces exactly to dram.Config.Map. "domain" stripes
// consecutive rows round-robin across domains first, so each domain sees
// a dense local address space regardless of relative channel counts.
const (
	InterleaveChannel = "channel"
	InterleaveDomain  = "domain"
)

// Domain is one memory tier: a named group of channels reachable at a
// fixed extra link latency, optionally with its own DRAM timing part.
// Bank geometry (banks per channel, row/line size) is shared machine-wide
// so per-bank observability keeps one shape across tiers.
type Domain struct {
	Name     string `json:"name"`
	Channels int    `json:"channels"`
	// LinkCycles is added to every request's completion time in this
	// domain: round-trip wire delay that occupies neither the bank nor
	// the data bus.
	LinkCycles uint64 `json:"link_cycles,omitempty"`
	// Timing overrides the base DRAM timing for this domain's channels
	// when non-nil (a slower pooled part behind the link).
	Timing *dram.Timing `json:"timing,omitempty"`
}

// Topology is a declarative wiring spec: an ordered list of domains plus
// the interleave policy that distributes row-granularity blocks among
// them. Domain order is significant — it fixes global channel numbering
// (domain 0's channels first) and the steering layout.
type Topology struct {
	Name       string   `json:"name"`
	Domains    []Domain `json:"domains"`
	Interleave string   `json:"interleave,omitempty"` // "" means "channel"
}

// Flat returns the canonical single-domain topology over the given
// channel count: every address steered to domain 0 unchanged.
func Flat(channels int) Topology {
	return Topology{
		Name:    "flat",
		Domains: []Domain{{Name: "local", Channels: channels}},
	}
}

// FarTier returns a two-domain pooled-memory preset: a near domain with
// the base channel count and a far single-channel domain behind a
// 256-cycle link. Timing is shared; the link is the differentiator.
func FarTier(channels int) Topology {
	return Topology{
		Name: "far-tier",
		Domains: []Domain{
			{Name: "near", Channels: channels},
			{Name: "far", Channels: 1, LinkCycles: 256},
		},
	}
}

// presets maps preset names to constructors taking the base (flat)
// channel count.
var presets = map[string]func(channels int) Topology{
	"flat":     Flat,
	"far-tier": FarTier,
}

// Names returns the preset names in sorted order.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Preset resolves a named preset against the base channel count. The
// empty name is the flat topology.
func Preset(name string, channels int) (Topology, error) {
	if name == "" {
		name = "flat"
	}
	f, ok := presets[name]
	if !ok {
		return Topology{}, fmt.Errorf("unknown topology %q (presets: %v)", name, Names())
	}
	return f(channels), nil
}

// Resolve lowers a topology name as configs spell it: "" and "flat" give
// nil (the flat machine), a leading "{" parses as an inline JSON spec,
// and anything else is a preset resolved against the base channel count.
func Resolve(spec string, channels int) (*Topology, error) {
	var t Topology
	var err error
	switch {
	case spec == "" || spec == "flat":
		return nil, nil
	case strings.HasPrefix(spec, "{"):
		t, err = FromJSON([]byte(spec))
	default:
		t, err = Preset(spec, channels)
	}
	if err != nil {
		return nil, err
	}
	return &t, nil
}

// FromJSON parses and validates a topology spec.
func FromJSON(data []byte) (Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("topology spec: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate checks the spec: at least one domain, unique non-empty names,
// power-of-two per-domain channel counts (each domain fronts its own
// dram.Config), and a known interleave policy.
func (t Topology) Validate() error {
	if len(t.Domains) == 0 {
		return fmt.Errorf("topology %q: no domains", t.Name)
	}
	seen := make(map[string]bool, len(t.Domains))
	for i, d := range t.Domains {
		if d.Name == "" {
			return fmt.Errorf("topology %q: domain %d has no name", t.Name, i)
		}
		if seen[d.Name] {
			return fmt.Errorf("topology %q: duplicate domain %q", t.Name, d.Name)
		}
		seen[d.Name] = true
		if !powerOfTwo(d.Channels) {
			return fmt.Errorf("topology %q: domain %q channels must be a power of two, got %d", t.Name, d.Name, d.Channels)
		}
		if d.Timing != nil {
			tm := *d.Timing
			if tm.TRP == 0 || tm.TRCD == 0 || tm.CL == 0 || tm.Burst == 0 {
				return fmt.Errorf("topology %q: domain %q timing override has zero fields", t.Name, d.Name)
			}
		}
	}
	switch t.Interleave {
	case "", InterleaveChannel, InterleaveDomain:
	default:
		return fmt.Errorf("topology %q: unknown interleave %q", t.Name, t.Interleave)
	}
	return nil
}

// TotalChannels is the machine-wide channel count, domain order.
func (t Topology) TotalChannels() int {
	n := 0
	for _, d := range t.Domains {
		n += d.Channels
	}
	return n
}

// ChannelOffsets returns each domain's first global channel index.
func (t Topology) ChannelOffsets() []int {
	off := make([]int, len(t.Domains))
	n := 0
	for i, d := range t.Domains {
		off[i] = n
		n += d.Channels
	}
	return off
}

// Steering is a compiled topology: the bijection between global line
// addresses and (domain, local line) pairs at row granularity, where a
// local line feeds the domain's own dram.Config.Map.
type Steering struct {
	topo    Topology
	lpr     uint64 // lines per DRAM row — the interleave granularity
	offsets []int
	totalCh uint64
	domain  bool // domain interleave (vs channel)
}

// Steering compiles the topology against the machine's lines-per-row.
func (t Topology) Steering(linesPerRow uint64) (*Steering, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if linesPerRow == 0 {
		return nil, fmt.Errorf("topology %q: lines per row must be positive", t.Name)
	}
	return &Steering{
		topo:    t,
		lpr:     linesPerRow,
		offsets: t.ChannelOffsets(),
		totalCh: uint64(t.TotalChannels()),
		domain:  t.Interleave == InterleaveDomain,
	}, nil
}

// Topology returns the compiled spec.
func (s *Steering) Topology() Topology { return s.topo }

// Steer maps a global line address to (domain, domain-local line). The
// single-domain fast path is the identity, so a flat machine behaves
// exactly like the pre-topology address path.
func (s *Steering) Steer(line uint64) (int, uint64) {
	nd := len(s.topo.Domains)
	if nd == 1 {
		return 0, line
	}
	col := line % s.lpr
	rest := line / s.lpr
	if s.domain {
		d := int(rest % uint64(nd))
		return d, (rest/uint64(nd))*s.lpr + col
	}
	gch := rest % s.totalCh
	d := nd - 1
	for ; d > 0; d-- {
		if gch >= uint64(s.offsets[d]) {
			break
		}
	}
	domCh := uint64(s.topo.Domains[d].Channels)
	localCh := gch - uint64(s.offsets[d])
	localRest := (rest/s.totalCh)*domCh + localCh
	return d, localRest*s.lpr + col
}

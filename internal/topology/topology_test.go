package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"padc/internal/dram"
)

// testTopologies is a spread of shapes: flat, the far-tier preset, an
// asymmetric channel-interleaved pair, and a domain-interleaved trio.
func testTopologies() []Topology {
	slow := dram.Timing{TRP: 90, TRCD: 90, CL: 90, Burst: 12}
	return []Topology{
		Flat(1),
		Flat(4),
		FarTier(2),
		{
			Name: "asym",
			Domains: []Domain{
				{Name: "near", Channels: 4},
				{Name: "mid", Channels: 2, LinkCycles: 64},
				{Name: "far", Channels: 1, LinkCycles: 300, Timing: &slow},
			},
		},
		{
			Name:       "rr",
			Interleave: InterleaveDomain,
			Domains: []Domain{
				{Name: "a", Channels: 2},
				{Name: "b", Channels: 1, LinkCycles: 128},
				{Name: "c", Channels: 8},
			},
		},
	}
}

// TestSteerUnsteerBijection property-checks both directions of the
// steering bijection for every test topology at several row widths,
// mirroring the dram.Config Map/Unmap bijection test.
func TestSteerUnsteerBijection(t *testing.T) {
	for _, topo := range testTopologies() {
		for _, lpr := range []uint64{1, 16, 64} {
			st, err := topo.Steering(lpr)
			if err != nil {
				t.Fatalf("%s: %v", topo.Name, err)
			}
			roundTrip := func(line uint64) bool {
				line %= 1 << 48
				d, local := st.Steer(line)
				if d < 0 || d >= st.Domains() {
					return false
				}
				return st.Unsteer(d, local) == line
			}
			if err := quick.Check(roundTrip, nil); err != nil {
				t.Errorf("%s lpr=%d: Unsteer(Steer(line)) != line: %v", topo.Name, lpr, err)
			}
			inverse := func(d int, local uint64) bool {
				if st.Domains() == 0 {
					return false
				}
				d = ((d % st.Domains()) + st.Domains()) % st.Domains()
				local %= 1 << 48
				gd, glocal := st.Steer(st.Unsteer(d, local))
				return gd == d && glocal == local
			}
			if err := quick.Check(inverse, nil); err != nil {
				t.Errorf("%s lpr=%d: Steer(Unsteer(d,local)) != (d,local): %v", topo.Name, lpr, err)
			}
		}
	}
}

// TestFlatSteeringIsIdentity pins the byte-identity contract: a
// single-domain topology must steer every address to domain 0 unchanged.
func TestFlatSteeringIsIdentity(t *testing.T) {
	st, err := Flat(4).Steering(64)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		line := r.Uint64() >> 8
		d, local := st.Steer(line)
		if d != 0 || local != line {
			t.Fatalf("flat steering not identity: Steer(%d) = (%d, %d)", line, d, local)
		}
	}
}

// TestSteerComposesWithMap checks the full address path: steering a line
// and applying the owning domain's dram.Config.Map must land on a local
// channel inside that domain, and the composed mapping must invert
// exactly through Unmap + Unsteer — every global line owns exactly one
// (domain, channel, bank, row, column) slot and vice versa.
func TestSteerComposesWithMap(t *testing.T) {
	base := dram.DefaultConfig()
	for _, topo := range testTopologies() {
		st, err := topo.Steering(base.LinesPerRow())
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		cfgs := make([]dram.Config, len(topo.Domains))
		for i, d := range topo.Domains {
			cfgs[i] = base
			cfgs[i].Channels = d.Channels
			if err := cfgs[i].Validate(); err != nil {
				t.Fatalf("%s/%s: %v", topo.Name, d.Name, err)
			}
		}
		offs := topo.ChannelOffsets()
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 20_000; i++ {
			line := r.Uint64() >> 16
			d, local := st.Steer(line)
			a := cfgs[d].Map(local)
			if a.Channel < 0 || a.Channel >= topo.Domains[d].Channels {
				t.Fatalf("%s: domain %d local channel %d out of range", topo.Name, d, a.Channel)
			}
			gch := offs[d] + a.Channel
			if st.DomainOf(gch) != d {
				t.Fatalf("%s: DomainOf(%d) = %d, want %d", topo.Name, gch, st.DomainOf(gch), d)
			}
			back := st.Unsteer(d, cfgs[d].Unmap(a))
			if back != line {
				t.Fatalf("%s: compose round trip %d -> (%d,%v) -> %d", topo.Name, line, d, a, back)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Topology{
		{Name: "empty"},
		{Name: "noname", Domains: []Domain{{Channels: 1}}},
		{Name: "dup", Domains: []Domain{{Name: "a", Channels: 1}, {Name: "a", Channels: 1}}},
		{Name: "npot", Domains: []Domain{{Name: "a", Channels: 3}}},
		{Name: "zero", Domains: []Domain{{Name: "a", Channels: 0}}},
		{Name: "badil", Interleave: "stripe", Domains: []Domain{{Name: "a", Channels: 1}}},
		{Name: "badtiming", Domains: []Domain{{Name: "a", Channels: 1, Timing: &dram.Timing{TRP: 60}}}},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid topology", c.Name)
		}
	}
}

func TestPresets(t *testing.T) {
	if _, err := Preset("no-such", 2); err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range append(Names(), "") {
		topo, err := Preset(name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: preset invalid: %v", name, err)
		}
	}
	ft, _ := Preset("far-tier", 4)
	if ft.TotalChannels() != 5 || ft.Domains[1].LinkCycles == 0 {
		t.Fatalf("far-tier shape wrong: %+v", ft)
	}
	fl, _ := Preset("", 4)
	if len(fl.Domains) != 1 || fl.TotalChannels() != 4 {
		t.Fatalf("empty preset should be flat: %+v", fl)
	}
}

func TestFromJSON(t *testing.T) {
	topo, err := FromJSON([]byte(`{"name":"pooled","domains":[{"name":"near","channels":2},{"name":"far","channels":1,"link_cycles":400,"timing":{"trp":90,"trcd":90,"cl":90,"burst":12}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.TotalChannels() != 3 || topo.Domains[1].Timing == nil {
		t.Fatalf("parsed topology wrong: %+v", topo)
	}
	if _, err := FromJSON([]byte(`{"name":"bad","domains":[{"name":"a","channels":3}]}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := FromJSON([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestResolve(t *testing.T) {
	for _, flat := range []string{"", "flat"} {
		if topo, err := Resolve(flat, 2); err != nil || topo != nil {
			t.Errorf("Resolve(%q) = %+v, %v; want the nil flat machine", flat, topo, err)
		}
	}
	ft, err := Resolve("far-tier", 2)
	if err != nil || ft.Name != "far-tier" || ft.Domains[0].Channels != 2 {
		t.Fatalf("preset not resolved against the channel count: %+v, %v", ft, err)
	}
	in, err := Resolve(`{"name":"pooled","domains":[{"name":"a","channels":1,"timing":{"trp":90,"trcd":90,"cl":90,"burst":12}}]}`, 2)
	if err != nil || in.Name != "pooled" {
		t.Fatalf("inline spec not parsed: %+v, %v", in, err)
	}
	for _, bad := range []string{"no-such", "{", `{"name":"x","domains":[]}`} {
		if _, err := Resolve(bad, 2); err == nil {
			t.Errorf("Resolve(%q) accepted", bad)
		}
	}

}

// FuzzSteer fuzzes topology shape and address together: any generated
// (shape, line) pair must steer into range and round-trip exactly,
// mirroring the dram FuzzMapUnmap harness.
func FuzzSteer(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), false, uint64(0))
	f.Add(uint8(2), uint8(1), uint8(3), false, uint64(123456789))
	f.Add(uint8(4), uint8(2), uint8(0), true, uint64(1)<<40)
	f.Fuzz(func(t *testing.T, nearCh, farCh, lprSel uint8, domainIL bool, line uint64) {
		pow2 := func(v uint8, max int) int {
			n := 1 << (v % 4)
			if n > max {
				n = max
			}
			return n
		}
		topo := Topology{Name: "fuzz", Domains: []Domain{
			{Name: "near", Channels: pow2(nearCh, 8)},
			{Name: "far", Channels: pow2(farCh, 8), LinkCycles: 64},
		}}
		if domainIL {
			topo.Interleave = InterleaveDomain
		}
		lpr := uint64(1) << (lprSel % 8)
		st, err := topo.Steering(lpr)
		if err != nil {
			t.Fatal(err)
		}
		line %= 1 << 52
		d, local := st.Steer(line)
		if d < 0 || d >= 2 {
			t.Fatalf("domain %d out of range", d)
		}
		if got := st.Unsteer(d, local); got != line {
			t.Fatalf("round trip: %d -> (%d,%d) -> %d", line, d, local, got)
		}
	})
}

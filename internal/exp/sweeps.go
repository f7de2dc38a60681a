package exp

import (
	"fmt"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/workload"
)

// sweepVariantsOverMixes averages WS over the 4-core mixes for each
// (variant, system-mutation) pair — the engine behind the §6.7–6.14
// sensitivity figures.
func sweepVariantsOverMixes(title string, sc Scale, variants []Variant, points []struct {
	Label  string
	Mutate func(*sim.Config)
}) *Table {
	return sweepVariantsOverMixesOn(Mixes(4, sc.Mixes4), title, sc, variants, points)
}

// sweepVariantsOverMixesOn is sweepVariantsOverMixes with an explicit
// workload set.
func sweepVariantsOverMixesOn(mixes [][]workload.Profile, title string, sc Scale, variants []Variant, points []struct {
	Label  string
	Mutate func(*sim.Config)
}) *Table {
	t := &Table{Title: title}
	t.Header = append([]string{"policy"}, labelsOf(points)...)
	type cell struct{ ws float64 }
	grid := make([][]cell, len(variants))
	for vi := range grid {
		grid[vi] = make([]cell, len(points))
	}
	type job struct{ vi, pi int }
	var jobs []job
	for vi := range variants {
		for pi := range points {
			jobs = append(jobs, job{vi, pi})
		}
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		alone := NewAloneIPC()
		var ws float64
		for _, mix := range mixes {
			r := RunMix(mix, 4, sc, variants[j.vi], alone, points[j.pi].Mutate)
			ws += r.WS
		}
		grid[j.vi][j.pi] = cell{ws / float64(len(mixes))}
	})
	for vi, v := range variants {
		row := []string{v.Name}
		for pi := range points {
			row = append(row, fmt.Sprintf("%.3f", grid[vi][pi].ws))
		}
		t.Add(row...)
	}
	return t
}

func labelsOf(points []struct {
	Label  string
	Mutate func(*sim.Config)
}) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = p.Label
	}
	return out
}

type sweepPoint = struct {
	Label  string
	Mutate func(*sim.Config)
}

// Fig23 reproduces Figure 23: WS across DRAM row-buffer sizes 2KB–128KB.
func Fig23(sc Scale) *Table {
	var points []sweepPoint
	for _, kb := range []uint64{2, 4, 8, 16, 32, 64, 128} {
		kb := kb
		points = append(points, sweepPoint{
			Label:  fmt.Sprintf("%dKB", kb),
			Mutate: func(c *sim.Config) { c.DRAM.RowBytes = kb << 10 },
		})
	}
	variants := []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
	return sweepVariantsOverMixes("Figure 23: WS vs DRAM row-buffer size (4-core)", sc, variants, points)
}

// Fig24 reproduces Figure 24: the closed-row policy.
func Fig24(sc Scale) *Table {
	closed := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Page = dram.ClosedPage
		}}
	}
	variants := []Variant{
		DemandFirst(),
		closed("demand-first-closed", DemandFirst()),
		closed("demand-pref-equal-closed", DemandPrefEqual()),
		closed("aps-closed", APSOnly()),
		closed("PADC-closed", PADC()),
		PADC(),
	}
	points := []sweepPoint{{Label: "WS", Mutate: nil}}
	return sweepVariantsOverMixes("Figure 24: closed-row policy (4-core)", sc, variants, points)
}

// Fig25 reproduces Figure 25: WS across per-core L2 sizes 512KB–8MB. One
// member of each mix is replaced by a cache-sensitive profile (a 1.5MB
// shuffled loop) so reuse in the 512KB–8MB band is expressible at
// simulation-friendly run lengths; the paper's 200M-instruction SPEC runs
// carry that reuse naturally.
func Fig25(sc Scale) *Table {
	var points []sweepPoint
	for _, kb := range []uint64{512, 1024, 2048, 4096, 8192} {
		kb := kb
		label := fmt.Sprintf("%dKB", kb)
		if kb >= 1024 {
			label = fmt.Sprintf("%dMB", kb/1024)
		}
		points = append(points, sweepPoint{
			Label:  label,
			Mutate: func(c *sim.Config) { c.L2.Bytes = kb << 10 },
		})
	}
	variants := []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
	mixes := Mixes(4, sc.Mixes4)
	for i := range mixes {
		mixes[i][0] = workload.CacheSensitive(fmt.Sprintf("cacheset-%d", i), 24576)
	}
	return sweepVariantsOverMixesOn(mixes, "Figure 25: WS vs per-core L2 size (4-core)", sc, variants, points)
}

// Fig26 reproduces Figures 26 (4-core) and 27 (8-core): a shared last-
// level cache sized as the sum of the private ones, with associativity
// scaled by core count.
func Fig26(ncores int, sc Scale) *Table {
	count := sc.Mixes4
	if ncores == 8 {
		count = sc.Mixes8
	}
	shared := func(c *sim.Config) {
		c.SharedL2 = true
		c.L2.Bytes = uint64(ncores) * (512 << 10)
		c.L2.Ways = 4 * ncores
		c.MSHR = c.BufferSlots
	}
	t := AverageMixes(Mixes(ncores, count), ncores, sc, StandardVariants(), shared)
	t.Title = fmt.Sprintf("Figures 26/27: shared L2, %d cores", ncores)
	return t
}

// Fig28 reproduces Figure 28: PADC under the stride, C/DC and Markov
// prefetchers.
func Fig28(sc Scale) *Table {
	mixes := Mixes(4, sc.Mixes4)
	t := &Table{
		Title:  "Figure 28: PADC with other prefetchers (4-core WS / bus Klines)",
		Header: []string{"prefetcher", "no-pref", "demand-first", "demand-pref-equal", "PADC", "bus-df(K)", "bus-padc(K)"},
	}
	for _, pk := range []sim.PrefetcherKind{sim.PFStride, sim.PFCDC, sim.PFMarkov} {
		pk := pk
		with := func(c *sim.Config) { c.Prefetcher = pk }
		variants := []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), PADC()}
		alone := NewAloneIPC()
		ws := make([]float64, len(variants))
		bus := make([]float64, len(variants))
		type job struct{ vi, mi int }
		var jobs []job
		for vi := range variants {
			for mi := range mixes {
				jobs = append(jobs, job{vi, mi})
			}
		}
		wsAcc := make([][]float64, len(variants))
		busAcc := make([][]float64, len(variants))
		for vi := range variants {
			wsAcc[vi] = make([]float64, len(mixes))
			busAcc[vi] = make([]float64, len(mixes))
		}
		parallel(len(jobs), func(i int) {
			j := jobs[i]
			r := RunMix(mixes[j.mi], 4, sc, variants[j.vi], alone, with)
			wsAcc[j.vi][j.mi] = r.WS
			busAcc[j.vi][j.mi] = float64(r.Bus.Total())
		})
		for vi := range variants {
			for mi := range mixes {
				ws[vi] += wsAcc[vi][mi]
				bus[vi] += busAcc[vi][mi]
			}
			ws[vi] /= float64(len(mixes))
			bus[vi] /= float64(len(mixes))
		}
		t.Add(pk.String(),
			fmt.Sprintf("%.3f", ws[0]), fmt.Sprintf("%.3f", ws[1]),
			fmt.Sprintf("%.3f", ws[2]), fmt.Sprintf("%.3f", ws[3]),
			fmt.Sprintf("%.1f", bus[1]/1000), fmt.Sprintf("%.1f", bus[3]/1000))
	}
	return t
}

// Fig29 reproduces Figures 29 and 30: DDPF and FDP under demand-first and
// combined with APS, against APD.
func Fig29(sc Scale) *Table {
	withFilter := func(name string, pol Variant, f sim.FilterKind) Variant {
		return Variant{name, func(c *sim.Config) {
			pol.Apply(c)
			c.Filter = f
		}}
	}
	variants := []Variant{
		DemandFirst(),
		withFilter("demand-first-ddpf", DemandFirst(), sim.FilterDDPF),
		withFilter("demand-first-fdp", DemandFirst(), sim.FilterFDP),
		{"demand-first-apd", func(c *sim.Config) {
			// APD without APS: adaptive dropping on top of rigid
			// demand-first scheduling.
			c.Policy = memctrl.DemandFirst
			c.PADC.EnableAPD = true
		}},
		withFilter("demand-pref-equal-ddpf", DemandPrefEqual(), sim.FilterDDPF),
		withFilter("demand-pref-equal-fdp", DemandPrefEqual(), sim.FilterFDP),
		withFilter("aps-ddpf", APSOnly(), sim.FilterDDPF),
		withFilter("aps-fdp", APSOnly(), sim.FilterFDP),
		PADC(),
	}
	mixes := Mixes(4, sc.Mixes4)
	t := &Table{
		Title:  "Figures 29-30: prefetch filtering (DDPF/FDP) vs APD (4-core)",
		Header: []string{"policy", "WS", "bus(K)"},
	}
	alone := NewAloneIPC()
	type acc struct{ ws, bus float64 }
	out := make([]acc, len(variants))
	type job struct{ vi, mi int }
	var jobs []job
	for vi := range variants {
		for mi := range mixes {
			jobs = append(jobs, job{vi, mi})
		}
	}
	grid := make([][]acc, len(variants))
	for vi := range grid {
		grid[vi] = make([]acc, len(mixes))
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		r := RunMix(mixes[j.mi], 4, sc, variants[j.vi], alone, nil)
		grid[j.vi][j.mi] = acc{r.WS, float64(r.Bus.Total())}
	})
	for vi := range variants {
		for mi := range mixes {
			out[vi].ws += grid[vi][mi].ws
			out[vi].bus += grid[vi][mi].bus
		}
		n := float64(len(mixes))
		t.Add(variants[vi].Name, fmt.Sprintf("%.3f", out[vi].ws/n), fmt.Sprintf("%.1f", out[vi].bus/n/1000))
	}
	return t
}

// Fig31 reproduces Figure 31: permutation-based page interleaving.
func Fig31(sc Scale) *Table {
	perm := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Permutation = true
		}}
	}
	variants := []Variant{
		NoPref(), perm("no-pref-perm", NoPref()),
		DemandFirst(), perm("demand-first-perm", DemandFirst()),
		APSOnly(), perm("aps-only-perm", APSOnly()),
		PADC(), perm("PADC-perm", PADC()),
	}
	points := []sweepPoint{{Label: "WS", Mutate: nil}}
	return sweepVariantsOverMixes("Figure 31: permutation-based interleaving (4-core)", sc, variants, points)
}

// Fig32 reproduces Figure 32: PADC on a runahead-execution CMP.
func Fig32(sc Scale) *Table {
	ra := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.Core.Runahead = true
		}}
	}
	variants := []Variant{
		NoPref(), ra("no-pref-ra", NoPref()),
		DemandFirst(), ra("demand-first-ra", DemandFirst()),
		APSOnly(), ra("aps-only-ra", APSOnly()),
		PADC(), ra("PADC-ra", PADC()),
	}
	points := []sweepPoint{{Label: "WS", Mutate: nil}}
	return sweepVariantsOverMixes("Figure 32: runahead execution (4-core)", sc, variants, points)
}

// Table1 reproduces Tables 1 and 2: the PADC hardware cost on the 4-core
// baseline.
func Table1() *Table {
	cfg := sim.Baseline(4)
	cost := core.HardwareCost{
		Cores:        4,
		CacheLines:   cfg.L2.Lines(),
		BufferSlots:  cfg.BufferSlots,
		L2CacheBytes: cfg.L2.Bytes,
	}
	t := &Table{
		Title:  "Tables 1-2: PADC hardware cost (4-core baseline)",
		Header: []string{"group", "field", "bits"},
	}
	for _, it := range cost.Items() {
		t.Add(it.Group, it.Field, fmt.Sprintf("%d", it.Bits))
	}
	t.Add("total", "", fmt.Sprintf("%d (%.2fKB, %.2f%% of L2)",
		cost.TotalBits(), float64(cost.TotalBits())/8192, cost.FractionOfL2()*100))
	t.Add("total w/o P", "", fmt.Sprintf("%d bits", cost.TotalBitsWithoutP()))
	return t
}

var _ = workload.Profile{}

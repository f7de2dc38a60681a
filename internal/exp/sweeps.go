package exp

import (
	"encoding/json"
	"fmt"

	"padc/internal/core"
	"padc/internal/runner"
	"padc/internal/sim"
)

// Fig23 reproduces Figure 23: WS across DRAM row-buffer sizes 2KB–128KB.
func Fig23(sc Scale) Sweep {
	sizes := []uint64{2, 4, 8, 16, 32, 64, 128}
	header := []string{"policy"}
	for _, kb := range sizes {
		header = append(header, fmt.Sprintf("%dKB", kb))
	}
	spec := multi("fig23", 4, sc, standard, mixNames(Mixes(4, sc.Mixes4)))
	spec.Axes = map[string][]json.RawMessage{"row_buffer_kb": values(sizes...)}
	return Sweep{spec, wsTable("Figure 23: WS vs DRAM row-buffer size (4-core)", header, crossPicks(standard, len(sizes)))}
}

// Fig24 reproduces Figure 24: the closed-row policy. It runs {demand-first,
// equal, aps, padc} × page {open, closed} and keeps six of the eight
// machines; the baselines keep the open page.
func Fig24(sc Scale) Sweep {
	spec := multi("fig24", 4, sc, []string{"demand-first", "equal", "aps", "padc"}, mixNames(Mixes(4, sc.Mixes4)))
	spec.PagePolicies = []string{"open", "closed"}
	spec.Alone = json.RawMessage(`{"policy":"demand-first","page_policy":"open"}`)
	// Machine 2·policy + page.
	picks := []pick{
		{"demand-first", []int{0}},
		{"demand-first-closed", []int{1}},
		{"demand-pref-equal-closed", []int{3}},
		{"aps-closed", []int{5}},
		{"PADC-closed", []int{7}},
		{label("padc"), []int{6}},
	}
	return Sweep{spec, wsTable("Figure 24: closed-row policy (4-core)", []string{"policy", "WS"}, picks)}
}

// Fig25 reproduces Figure 25: WS across per-core L2 sizes 512KB–8MB. One
// member of each mix is replaced by a cache-sensitive profile (a 1.5MB
// shuffled loop) so reuse in the 512KB–8MB band is expressible at
// simulation-friendly run lengths; the paper's 200M-instruction SPEC runs
// carry that reuse naturally.
func Fig25(sc Scale) Sweep {
	sizes := []uint64{512, 1024, 2048, 4096, 8192}
	header := []string{"policy"}
	for _, kb := range sizes {
		col := fmt.Sprintf("%dKB", kb)
		if kb >= 1024 {
			col = fmt.Sprintf("%dMB", kb/1024)
		}
		header = append(header, col)
	}
	mixes := mixNames(Mixes(4, sc.Mixes4))
	for i := range mixes {
		mixes[i][0] = fmt.Sprintf("cacheset-%d", i)
	}
	spec := multi("fig25", 4, sc, standard, mixes)
	spec.Axes = map[string][]json.RawMessage{"l2_kb": values(sizes...)}
	return Sweep{spec, wsTable("Figure 25: WS vs per-core L2 size (4-core)", header, crossPicks(standard, len(sizes)))}
}

// Fig28 reproduces Figure 28: PADC under the stride, C/DC and Markov
// prefetchers.
func Fig28(sc Scale) Sweep {
	policies := []string{"no-pref", "demand-first", "equal", "padc"}
	prefetchers := []string{"stride", "cdc", "markov"}
	spec := multi("fig28", 4, sc, policies, mixNames(Mixes(4, sc.Mixes4)))
	spec.Prefetchers = prefetchers
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Figure 28: PADC with other prefetchers (4-core WS / bus Klines)",
				Header: []string{"prefetcher", "no-pref", "demand-first", "demand-pref-equal", "PADC", "bus-df(K)", "bus-padc(K)"},
			}
			for pf, name := range prefetchers {
				at := func(pol int) []runner.JobResult { return g[pol*len(prefetchers)+pf] }
				t.Add(name,
					fmt.Sprintf("%.3f", mean(at(0), ws)), fmt.Sprintf("%.3f", mean(at(1), ws)),
					fmt.Sprintf("%.3f", mean(at(2), ws)), fmt.Sprintf("%.3f", mean(at(3), ws)),
					fmt.Sprintf("%.1f", mean(at(1), bus)/1000), fmt.Sprintf("%.1f", mean(at(3), bus)/1000))
			}
			return t
		},
	}
}

// Fig29 reproduces Figures 29 and 30: DDPF and FDP under demand-first and
// combined with APS, against APD. It runs {demand-first,
// demand-first-apd, equal, aps, padc} × filter {none, ddpf, fdp} and
// keeps nine of the fifteen machines; the baselines run unfiltered.
func Fig29(sc Scale) Sweep {
	spec := multi("fig29", 4, sc, []string{"demand-first", "demand-first-apd", "equal", "aps", "padc"}, mixNames(Mixes(4, sc.Mixes4)))
	spec.Axes = map[string][]json.RawMessage{"filter": values("none", "ddpf", "fdp")}
	spec.Alone = json.RawMessage(`{"policy":"demand-first","filter":"none"}`)
	// Machine 3·policy + filter.
	picks := []pick{
		{"demand-first", []int{0}},
		{"demand-first-ddpf", []int{1}},
		{"demand-first-fdp", []int{2}},
		{"demand-first-apd", []int{3}},
		{"demand-pref-equal-ddpf", []int{7}},
		{"demand-pref-equal-fdp", []int{8}},
		{"aps-ddpf", []int{10}},
		{"aps-fdp", []int{11}},
		{label("padc"), []int{12}},
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Figures 29-30: prefetch filtering (DDPF/FDP) vs APD (4-core)",
				Header: []string{"policy", "WS", "bus(K)"},
			}
			for _, p := range picks {
				rows := g[p.machines[0]]
				t.Add(p.label, fmt.Sprintf("%.3f", mean(rows, ws)), fmt.Sprintf("%.1f", mean(rows, bus)/1000))
			}
			return t
		},
	}
}

// onOff is a figure comparing each policy without and with one boolean
// machine feature: rows alternate off/on, the baselines run with it off.
func onOff(name, title, field string, onLabels []string, sc Scale) Sweep {
	policies := []string{"no-pref", "demand-first", "aps", "padc"}
	spec := multi(name, 4, sc, policies, mixNames(Mixes(4, sc.Mixes4)))
	spec.Axes = map[string][]json.RawMessage{field: values(false, true)}
	spec.Alone = json.RawMessage(fmt.Sprintf(`{"policy":"demand-first",%q:false}`, field))
	var picks []pick
	for i, pol := range policies {
		picks = append(picks, pick{label(pol), []int{2 * i}}, pick{onLabels[i], []int{2*i + 1}})
	}
	return Sweep{spec, wsTable(title, []string{"policy", "WS"}, picks)}
}

// Fig31 reproduces Figure 31: permutation-based page interleaving.
func Fig31(sc Scale) Sweep {
	return onOff("fig31", "Figure 31: permutation-based interleaving (4-core)", "permutation",
		[]string{"no-pref-perm", "demand-first-perm", "aps-only-perm", "PADC-perm"}, sc)
}

// Fig32 reproduces Figure 32: PADC on a runahead-execution CMP.
func Fig32(sc Scale) Sweep {
	return onOff("fig32", "Figure 32: runahead execution (4-core)", "runahead",
		[]string{"no-pref-ra", "demand-first-ra", "aps-only-ra", "PADC-ra"}, sc)
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

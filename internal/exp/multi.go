package exp

import (
	"encoding/json"
	"fmt"

	"padc/internal/runner"
	"padc/internal/workload"
)

// mixSeed keeps the randomly-drawn multiprogrammed workloads reproducible.
const mixSeed = 0x9a7c

// Mixes returns the deterministic workload draw for an n-core experiment.
func Mixes(ncores, count int) [][]workload.Profile {
	return workload.Mixes(count, ncores, mixSeed+uint64(ncores))
}

// mixNames spells mixes as a spec's explicit workloads, so the spec runs
// exactly the draw Mixes makes.
func mixNames(mixes [][]workload.Profile) [][]string {
	out := make([][]string, len(mixes))
	for i, mix := range mixes {
		for _, p := range mix {
			out[i] = append(out[i], p.Name)
		}
	}
	return out
}

// mixCount is the scale's workload count for an n-core system.
func mixCount(ncores int, sc Scale) int {
	switch ncores {
	case 2:
		return sc.Mixes2
	case 8:
		return sc.Mixes8
	}
	return sc.Mixes4
}

// average runs policies over the scale's ncores-core mixes on the grid
// axes given and reports per-policy averaged WS/HS/UF/traffic — the shape
// of Figures 9, 16, 17, 19–22, 26 and 27.
func average(name, title string, ncores int, sc Scale, policies []string, axes map[string][]json.RawMessage) Sweep {
	spec := multi(name, ncores, sc, policies, mixNames(Mixes(ncores, mixCount(ncores, sc))))
	spec.Axes = axes
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			t := &Table{Title: title, Header: []string{"policy", "WS", "HS", "UF", "bus(Klines)"}}
			for m, rows := range machines(res) {
				t.Addf(label(policies[m]), mean(rows, ws), mean(rows, hs), mean(rows, uf), mean(rows, bus)/1000)
			}
			return t
		},
	}
}

// Fig9 reproduces Figure 9: average 2-core performance and traffic.
func Fig9(sc Scale) Sweep {
	return average("fig9", fmt.Sprintf("Figure 9: 2-core average over %d workloads", sc.Mixes2), 2, sc, standard, nil)
}

// Fig16 reproduces Figure 16: average 4-core performance and traffic.
func Fig16(sc Scale) Sweep {
	return average("fig16", fmt.Sprintf("Figure 16: 4-core average over %d workloads", sc.Mixes4), 4, sc, standard, nil)
}

// Fig17 reproduces Figure 17: average 8-core performance and traffic.
func Fig17(sc Scale) Sweep {
	return average("fig17", fmt.Sprintf("Figure 17: 8-core average over %d workloads", sc.Mixes8), 8, sc, standard, nil)
}

// Fig19 reproduces Figures 19 (ncores=4) and 20 (ncores=8): PADC augmented
// with the shortest-job ranking scheme.
func Fig19(ncores int, sc Scale) Sweep {
	return average(fmt.Sprintf("fig19-%dcore", ncores), fmt.Sprintf("Figures 19/20: ranking on the %d-core system", ncores),
		ncores, sc, []string{"no-pref", "demand-first", "padc", "padc-rank"}, nil)
}

// Fig21 reproduces Figures 21 (ncores=4) and 22 (ncores=8): two memory
// controllers.
func Fig21(ncores int, sc Scale) Sweep {
	return average(fmt.Sprintf("fig21-%dcore", ncores), fmt.Sprintf("Figures 21/22: dual memory controllers, %d cores", ncores),
		ncores, sc, standard, map[string][]json.RawMessage{"channels": values(2)})
}

// Fig26 reproduces Figures 26 (4-core) and 27 (8-core): a shared last-
// level cache sized as the sum of the private ones, with associativity
// scaled by core count.
func Fig26(ncores int, sc Scale) Sweep {
	return average(fmt.Sprintf("fig26-%dcore", ncores), fmt.Sprintf("Figures 26/27: shared L2, %d cores", ncores),
		ncores, sc, standard, map[string][]json.RawMessage{"l2_kb": values(512 * ncores), "shared_l2": values(true)})
}

// speedups renders a row's per-core individual speedups.
func speedups(j runner.JobResult) []string {
	out := make([]string, len(j.Speedup))
	for i, s := range j.Speedup {
		out[i] = fmt.Sprintf("%.3f", s)
	}
	return out
}

// caseStudy runs one named 4-core mix under the standard policies and
// reports per-application speedups plus system metrics (Figures 10–15).
func caseStudy(name, title string, names []string, sc Scale) Sweep {
	return Sweep{
		Spec: multi(name, 4, sc, standard, [][]string{names}),
		Reduce: func(res *runner.SweepResult) *Table {
			t := &Table{Title: title}
			t.Header = append(append([]string{"policy"}, names...), "WS", "HS", "UF", "bus(K)", "dropped")
			for m, rows := range machines(res) {
				j := rows[0]
				cells := append([]string{label(standard[m])}, speedups(j)...)
				t.Add(append(cells,
					fmt.Sprintf("%.3f", j.WS), fmt.Sprintf("%.3f", j.HS), fmt.Sprintf("%.2f", j.UF),
					fmt.Sprintf("%.1f", bus(j)/1000), fmt.Sprintf("%d", j.PrefDropped))...)
			}
			return t
		},
	}
}

// Fig10 reproduces Case Study I (Figures 10–11): four prefetch-friendly
// applications.
func Fig10(sc Scale) Sweep {
	return caseStudy("fig10", "Figures 10-11, case study I: all prefetch-friendly",
		[]string{"swim", "bwaves", "leslie3d", "soplex"}, sc)
}

// Fig12 reproduces Case Study II (Figures 12–13): four prefetch-unfriendly
// applications.
func Fig12(sc Scale) Sweep {
	return caseStudy("fig12", "Figures 12-13, case study II: all prefetch-unfriendly",
		[]string{"art", "galgel", "ammp", "milc"}, sc)
}

// Fig14 reproduces Case Study III (Figures 14–15): two friendly and two
// unfriendly applications.
func Fig14(sc Scale) Sweep {
	return caseStudy("fig14", "Figures 14-15, case study III: mixed",
		[]string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}, sc)
}

// Table8 reproduces Table 8: the effect of the urgency rule on the mixed
// case study. The grid is {demand-first, aps, padc} × urgency {off, on};
// the baselines keep urgency on.
func Table8(sc Scale) Sweep {
	names := []string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}
	spec := multi("tab8", 4, sc, []string{"demand-first", "aps", "padc"}, [][]string{names})
	spec.Axes = map[string][]json.RawMessage{"urgency": values(false, true)}
	spec.Alone = json.RawMessage(`{"policy":"demand-first","urgency":true}`)
	// Machine 2·policy + urgency.
	picks := []pick{
		{"demand-first", []int{1}},
		{"aps-no-urgent", []int{2}},
		{"aps", []int{3}},
		{"aps-apd-no-urgent", []int{4}},
		{"aps-apd (PADC)", []int{5}},
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{Title: "Table 8: effect of prioritizing urgent requests"}
			t.Header = append(append([]string{"policy"}, names...), "UF", "WS", "HS")
			for _, p := range picks {
				j := g[p.machines[0]][0]
				cells := append([]string{p.label}, speedups(j)...)
				t.Add(append(cells, fmt.Sprintf("%.2f", j.UF), fmt.Sprintf("%.3f", j.WS), fmt.Sprintf("%.3f", j.HS))...)
			}
			return t
		},
	}
}

// Table9 reproduces Tables 9 and 10: four identical instances of one
// application (libquantum for Table 9, milc for Table 10) on the 4-core
// system.
func Table9(bench string, sc Scale) Sweep {
	return Sweep{
		Spec: multi("tab9-"+bench, 4, sc, standard, [][]string{{bench, bench, bench, bench}}),
		Reduce: func(res *runner.SweepResult) *Table {
			t := &Table{Title: fmt.Sprintf("Tables 9/10: four identical %s instances", bench)}
			t.Header = []string{"policy", "IS0", "IS1", "IS2", "IS3", "WS", "HS", "UF"}
			for m, rows := range machines(res) {
				j := rows[0]
				is := j.Speedup
				t.Addf(label(standard[m]), is[0], is[1], is[2], is[3], j.WS, j.HS, j.UF)
			}
			return t
		},
	}
}

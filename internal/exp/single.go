package exp

import (
	"fmt"
	"sort"

	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/workload"
)

// Fig1Benchmarks are the ten applications of Figure 1: five where
// demand-first wins, five where demand-prefetch-equal wins.
func Fig1Benchmarks() []string {
	return []string{
		"galgel", "ammp", "xalancbmk", "art", "milc", // prefetch-unfriendly
		"swim", "libquantum", "bwaves", "leslie3d", "lbm", // prefetch-friendly
	}
}

// Fig6Benchmarks are the fifteen applications Figure 6 plots individually.
func Fig6Benchmarks() []string {
	return []string{
		"swim", "galgel", "art", "ammp", "gcc", "mcf", "libquantum",
		"omnetpp", "xalancbmk", "bwaves", "milc", "cactusADM", "leslie3d",
		"soplex", "lbm",
	}
}

// single is the 1-core sweep of policies over one mix per benchmark; its
// machines reduce to one row per policy, one column per benchmark.
func single(name string, benches, policies []string, sc Scale) runner.Spec {
	mixes := make([][]string, len(benches))
	for i, b := range benches {
		mixes[i] = []string{b}
	}
	return runner.Spec{Name: name, Cores: 1, Insts: sc.Insts, Policies: policies, Workloads: mixes}
}

func ipc(j runner.JobResult) float64 { return j.IPC[0] }

// Fig1 reproduces Figure 1: IPC of the stream prefetcher under
// demand-first and demand-prefetch-equal, normalized to no prefetching,
// for ten benchmarks.
func Fig1(sc Scale) Sweep {
	benches := Fig1Benchmarks()
	return Sweep{
		Spec: single("fig1", benches, []string{"no-pref", "demand-first", "equal"}, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Figure 1: normalized IPC of stream prefetching under rigid policies",
				Header: []string{"benchmark", "demand-first", "demand-pref-equal"},
			}
			for b, name := range benches {
				base := ipc(g[0][b])
				t.Addf(name, ipc(g[1][b])/base, ipc(g[2][b])/base)
			}
			return t
		},
	}
}

// Fig4 reproduces Figure 4 for milc: (a) the service-time histogram of
// useful versus useless prefetches under demand-first and (b) the
// prefetch-accuracy phase trace.
func Fig4(sc Scale) (hist *Table, trace *Table) {
	// Rigid demand-first scheduling with the baseline's APD still on.
	m := sim.DefaultMachine(1)
	m.Policy, m.TargetInsts = "demand-first-apd", sc.Insts
	cfg, err := m.Config()
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	cfg.TrackServiceHist = true
	cfg.TrackAccuracyTrace = true
	cfg.Workload = []workload.Profile{workload.MustByName("milc")}
	res, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}

	hist = &Table{
		Title:  "Figure 4(a): milc prefetch service time (demand-first)",
		Header: []string{"cycles", "useful", "useless"},
	}
	for i := range res.ServiceHistUseful {
		label := fmt.Sprintf("%d-%d", i*200, i*200+200)
		if i == len(res.ServiceHistUseful)-1 {
			label = fmt.Sprintf("%d+", i*200)
		}
		hist.Add(label,
			fmt.Sprintf("%d", res.ServiceHistUseful[i]),
			fmt.Sprintf("%d", res.ServiceHistUseless[i]))
	}

	trace = &Table{
		Title:  "Figure 4(b): milc prefetch accuracy per 100K-cycle interval",
		Header: []string{"interval", "accuracy(%)"},
	}
	for i, a := range res.AccuracyTrace {
		trace.Add(fmt.Sprintf("%d", i), fmt.Sprintf("%.1f", a*100))
	}
	return hist, trace
}

// policyHeader is the single-core tables' header: one column per
// standard policy.
func policyHeader(first string) []string {
	h := []string{first}
	for _, pol := range standard {
		h = append(h, label(pol))
	}
	return h
}

// Fig6 reproduces Figure 6: single-core IPC of the five policies
// normalized to demand-first, for 15 benchmarks plus the geometric mean
// over the whole extended suite when full is true.
func Fig6(sc Scale, full bool) Sweep {
	names := Fig6Benchmarks()
	if full {
		names = workload.Names()
	}
	return Sweep{
		Spec: single("fig6", names, standard, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{Title: "Figure 6: single-core normalized IPC", Header: policyHeader("benchmark")}
			norm := make(map[string][]float64, len(names))
			for b, name := range names {
				base := ipc(g[1][b])
				var row []float64
				for v := range standard {
					row = append(row, ipc(g[v][b])/base)
				}
				norm[name] = row
			}
			for _, b := range Fig6Benchmarks() {
				if r, ok := norm[b]; ok {
					t.Addf(b, r...)
				}
			}
			// Geometric mean over everything that ran.
			gm := make([]float64, len(standard))
			for v := range standard {
				var xs []float64
				for _, b := range names {
					xs = append(xs, norm[b][v])
				}
				gm[v] = stats.GeoMean(xs)
			}
			t.Addf(fmt.Sprintf("gmean%d", len(names)), gm...)
			return t
		},
	}
}

// Fig7 reproduces Figure 7: stall time per load (SPL) on the single-core
// system for the five policies.
func Fig7(sc Scale) Sweep {
	names := Fig6Benchmarks()
	return Sweep{
		Spec: single("fig7", names, standard, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{Title: "Figure 7: stall cycles per load (single core)", Header: policyHeader("benchmark")}
			means := make([]float64, len(standard))
			for b, name := range names {
				var row []float64
				for v := range standard {
					spl := g[v][b].Telemetry["core0/spl"]
					row = append(row, spl)
					means[v] += spl
				}
				t.Addf(name, row...)
			}
			for v := range means {
				means[v] /= float64(len(names))
			}
			t.Addf("mean", means...)
			return t
		},
	}
}

// Fig8 reproduces Figure 8: single-core bus traffic broken into demand,
// useful-prefetch and useless-prefetch lines.
func Fig8(sc Scale) Sweep {
	names := Fig6Benchmarks()
	return Sweep{
		Spec: single("fig8", names, standard, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Figure 8: bus traffic (K cache lines): demand/useful/useless",
				Header: []string{"benchmark", "policy", "demand", "useful-pref", "useless-pref", "total"},
			}
			for b, name := range names {
				for v, pol := range standard {
					j := g[v][b]
					t.Add(name, label(pol),
						fmt.Sprintf("%.1f", float64(j.BusDemand)/1000),
						fmt.Sprintf("%.1f", float64(j.BusUseful)/1000),
						fmt.Sprintf("%.1f", float64(j.BusUseless)/1000),
						fmt.Sprintf("%.1f", bus(j)/1000))
				}
			}
			return t
		},
	}
}

// Table5 reproduces Table 5: benchmark characteristics without prefetching
// and with the stream prefetcher under demand-first.
func Table5(sc Scale, full bool) Sweep {
	names := Fig6Benchmarks()
	if full {
		names = workload.Names()
	}
	sort.Strings(names)
	return Sweep{
		Spec: single("tab5", names, []string{"no-pref", "demand-first"}, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Table 5: benchmark characteristics (no-pref | demand-first)",
				Header: []string{"benchmark", "class", "IPC0", "MPKI0", "IPC", "MPKI", "RBH(%)", "ACC(%)", "COV(%)"},
			}
			for b, name := range names {
				np, df := g[0][b], g[1][b]
				t.Add(name, workload.MustByName(name).Class.String(),
					fmt.Sprintf("%.2f", ipc(np)),
					fmt.Sprintf("%.2f", np.Telemetry["core0/mpki"]),
					fmt.Sprintf("%.2f", ipc(df)),
					fmt.Sprintf("%.2f", df.Telemetry["core0/mpki"]),
					fmt.Sprintf("%.1f", df.RowHitRate*100),
					fmt.Sprintf("%.1f", df.Telemetry["core0/acc"]*100),
					fmt.Sprintf("%.1f", df.Telemetry["core0/cov"]*100))
			}
			return t
		},
	}
}

// Table7 reproduces Table 7: the row-buffer hit rate over useful requests
// (RBHU) for each policy.
func Table7(sc Scale) Sweep {
	names := []string{"swim", "galgel", "art", "ammp", "mcf", "libquantum",
		"omnetpp", "xalancbmk", "bwaves", "milc", "leslie3d", "soplex", "lbm"}
	return Sweep{
		Spec: single("tab7", names, standard, sc),
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{Title: "Table 7: RBHU (row-buffer hit rate for useful requests)", Header: policyHeader("benchmark")}
			sums := make([]float64, len(standard))
			for b, name := range names {
				var row []float64
				for v := range standard {
					r := g[v][b].RBHU
					row = append(row, r)
					sums[v] += r
				}
				t.Addf(name, row...)
			}
			for v := range sums {
				sums[v] /= float64(len(names))
			}
			t.Addf("mean", sums...)
			return t
		},
	}
}

// Fig2 reproduces the conceptual example of Figure 2 at the DRAM
// controller level: three requests to one bank (prefetch X row A, demand Y
// row B, prefetch Z row A) with row A open. It returns the cycle in which
// each request completes under both rigid policies.
func Fig2() *Table {
	t := &Table{
		Title:  "Figure 2: conceptual 3-request example (completion cycles)",
		Header: []string{"policy", "X(pref,rowA)", "Y(dem,rowB)", "Z(pref,rowA)"},
	}
	for _, pol := range []memctrl.Policy{memctrl.DemandFirst, memctrl.DemandPrefEqual} {
		x, y, z := fig2Run(pol)
		t.Add(pol.String(), fmt.Sprintf("%d", x), fmt.Sprintf("%d", y), fmt.Sprintf("%d", z))
	}
	return t
}

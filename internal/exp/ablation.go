package exp

import (
	"encoding/json"
	"fmt"

	"padc/internal/runner"
	"padc/internal/topology"
)

// AblationDropThreshold compares APD's dynamic 4-level drop-threshold
// ladder (Table 6) against fixed thresholds. The paper argues (§4.3) that
// a single static threshold either drops useful prefetches of accurate
// phases (too low) or retains useless ones too long (too high); the
// dynamic ladder should match or beat every static point on both WS and
// traffic.
func AblationDropThreshold(sc Scale) Sweep {
	spec := multi("abl-drop", 4, sc, []string{"demand-first", "aps", "padc"}, mixNames(Mixes(4, sc.Mixes4)))
	spec.DropCycles = []uint64{0, 100, 1_500, 50_000, 100_000}
	// Machine 5·policy + drop; the fixed thresholds matter only with APD.
	picks := []pick{
		{"demand-first", []int{0}},
		{label("aps"), []int{5}},
		{"apd-fixed-100", []int{11}},
		{"apd-fixed-1500", []int{12}},
		{"apd-fixed-50K", []int{13}},
		{"apd-fixed-100K", []int{14}},
		{"apd-dynamic (PADC)", []int{10}},
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Ablation: APD drop-threshold ladder vs fixed thresholds (4-core)",
				Header: []string{"policy", "WS", "bus(K)", "dropped"},
			}
			for _, p := range picks {
				rows := g[p.machines[0]]
				var drop uint64
				for _, j := range rows {
					drop += j.PrefDropped
				}
				t.Add(p.label, fmt.Sprintf("%.3f", mean(rows, ws)), fmt.Sprintf("%.1f", mean(rows, bus)/1000),
					fmt.Sprintf("%d", drop/uint64(len(rows))))
			}
			return t
		},
	}
}

// AblationPromotionThreshold sweeps APS's promotion threshold around the
// paper's 85%: too low promotes junk to demand priority, too high never
// promotes and degenerates to demand-first. The rigid policies are read
// at the paper's 85%.
func AblationPromotionThreshold(sc Scale) Sweep {
	thresholds := []float64{0.25, 0.50, 0.75, 0.85, 0.95}
	spec := multi("abl-prom", 4, sc, []string{"demand-first", "equal", "aps"}, mixNames(Mixes(4, sc.Mixes4)))
	spec.PromotionThresholds = thresholds
	// Machine 5·policy + threshold.
	picks := []pick{{"demand-first", []int{3}}, {label("equal"), []int{8}}}
	for i, th := range thresholds {
		picks = append(picks, pick{fmt.Sprintf("aps@%.0f%%", th*100), []int{10 + i}})
	}
	return Sweep{spec, wsTable("Ablation: APS promotion threshold sweep (4-core)", []string{"policy", "WS"}, picks)}
}

// AblationRuleOrder ablates the scheduler's priority-rule ordering itself
// (the paper's actual contribution, §5–6): the same rule vocabulary is
// recomposed into different stacks through the sched kernel — APS with
// rules reordered or removed, the §6.5 ranking appended, and plain
// FR-FCFS as the floor. The APS order (criticality above row locality,
// urgency below it) should dominate its permutations.
func AblationRuleOrder(sc Scale) Sweep {
	stacks := []string{
		"rules:rowhit,fcfs",                      // FR-FCFS floor
		"rules:critical,rowhit,urgent,fcfs",      // APS (§5.1 order)
		"rules:rowhit,critical,urgent,fcfs",      // locality above criticality
		"rules:critical,urgent,rowhit,fcfs",      // urgency above locality
		"rules:critical,rowhit,fcfs",             // APS minus urgency
		"rules:critical,rowhit,urgent,rank,fcfs", // APS + §6.5 ranking
	}
	spec := multi("abl-rules", 4, sc, stacks, mixNames(Mixes(4, sc.Mixes4)))
	return Sweep{spec, wsTable("Ablation: scheduler priority-rule order (4-core WS)", []string{"policy", "WS"}, crossPicks(stacks, 1))}
}

// AblationRefresh charges the simulator with DRAM maintenance (a cost the
// paper's evaluation idealizes away) and measures what each refresh mode
// does to the scheduling policies: per-bank REFpb steals one bank at a
// time for tRFCpb, all-bank REF drains the rank and blocks every bank for
// tRFC, and the JEDEC postpone/pull-in window decides when the obligation
// is paid. The page-policy variants show whether the adaptive per-bank
// predictor claws back any of the locality the refresh-induced precharges
// destroy. WS and the maintenance counters are averaged over the mixes; the
// baselines keep the refresh mode and the open page.
func AblationRefresh(sc Scale) Sweep {
	modes := []string{"off", "per-bank", "all-bank"}
	pages := []string{"open", "closed", "adaptive"}
	spec := multi("abl-refresh", 4, sc, []string{"demand-first", "padc"}, mixNames(Mixes(4, sc.Mixes4)))
	spec.Refresh, spec.PagePolicies = modes, pages
	spec.Alone = json.RawMessage(`{"policy":"demand-first","page_policy":"open"}`)
	variants := []struct {
		label        string
		policy, page int
	}{
		{"demand-first", 0, 0},
		{label("padc"), 1, 0},
		{"PADC-closed-page", 1, 1},
		{"PADC-adaptive-page", 1, 2},
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Ablation: DRAM refresh mode x page policy (4-core)",
				Header: []string{"policy", "refresh", "WS", "refreshes", "postponed", "pulled-in", "forced", "blocked(K)"},
			}
			for _, v := range variants {
				for mi, mode := range modes {
					rows := g[(v.policy*len(modes)+mi)*len(pages)+v.page]
					var issued, postponed, pulledIn, forced, blocked uint64
					for _, j := range rows {
						issued += tel(j, "refreshes_issued")
						postponed += tel(j, "refreshes_postponed")
						pulledIn += tel(j, "refreshes_pulled_in")
						forced += tel(j, "refreshes_forced")
						blocked += tel(j, "refresh_blocked_cycles")
					}
					n := uint64(len(rows))
					t.Add(v.label, mode,
						fmt.Sprintf("%.3f", mean(rows, ws)),
						fmt.Sprintf("%d", issued/n),
						fmt.Sprintf("%d", postponed/n),
						fmt.Sprintf("%d", pulledIn/n),
						fmt.Sprintf("%d", forced/n),
						fmt.Sprintf("%.1f", float64(blocked)/float64(n)/1000))
				}
			}
			return t
		},
	}
}

// AblationTopology compares the flat single-domain layout against the
// far-tier preset (a one-channel pooled tier behind a long link) under
// each scheduling policy. The far tier stretches every request it absorbs
// by the link latency without consuming extra bank or bus time, so the
// interesting question is whether PADC's tier-local accuracy estimates
// keep prefetching profitable on the slow tier or APD learns to shed it.
// WS is averaged over the mixes; the far-tier columns report the slow
// tier's share of serviced requests and its measured prefetch accuracy
// ("-" on the flat rows, which have no domain breakdown).
func AblationTopology(sc Scale) Sweep {
	policies := []string{"demand-first", "aps", "padc"}
	topos := []string{"flat", "far-tier"}
	spec := multi("abl-topology", 4, sc, policies, mixNames(Mixes(4, sc.Mixes4)))
	spec.Topologies = topos
	// The far tier's domains: those behind a link.
	var far []string
	if t, err := topology.Resolve("far-tier", 1); err == nil {
		for _, d := range t.Domains {
			if d.LinkCycles > 0 {
				far = append(far, "dom/"+d.Name+"/")
			}
		}
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title:  "Ablation: memory topology, flat vs far-tier (4-core)",
				Header: []string{"policy", "topology", "WS", "bus(K)", "far-share", "far-acc"},
			}
			for pi, pol := range policies {
				for ti, topo := range topos {
					rows := g[pi*len(topos)+ti]
					var serviced, farServiced, farSent, farUsed float64
					for _, j := range rows {
						serviced += float64(j.Serviced)
						for _, d := range far {
							farServiced += j.Telemetry[d+"serviced"]
							farSent += j.Telemetry[d+"pref_sent"]
							farUsed += j.Telemetry[d+"pref_used"]
						}
					}
					farShare, farAcc := "-", "-"
					if farServiced > 0 && serviced > 0 {
						farShare = fmt.Sprintf("%.1f%%", farServiced/serviced*100)
					}
					if farSent > 0 {
						farAcc = fmt.Sprintf("%.1f%%", farUsed/farSent*100)
					}
					t.Add(label(pol), topo,
						fmt.Sprintf("%.3f", mean(rows, ws)),
						fmt.Sprintf("%.1f", mean(rows, bus)/1000),
						farShare, farAcc)
				}
			}
			return t
		},
	}
}

// AblationMemSide exercises the memory-side prefetch subsystem along its
// two control loops. First the DSPatch bias selector: on an idle bus
// (4 channels) bandwidth headroom stays high and the coverage-biased
// pattern (CovP) should dominate trigger selections, while a saturated
// single channel pushes headroom under the flip point and the
// accuracy-biased pattern (AccP) takes over. Second the PADC gate: on
// low-accuracy mixes the memory-side path's measured accuracy pins in
// the drop ladder's bottom band and APD's generation gate should
// suppress candidates that an APD-less configuration would have issued.
// Throughput is the plain IPC sum (no alone baselines: the channel axis
// changes the machine, not just the policy).
func AblationMemSide(sc Scale) Sweep {
	// DSPatch trains its signature table on page-buffer turnover, which
	// needs more region traffic than the quick scale generates.
	insts := max(sc.Insts, 400_000)
	mixes := []string{"streams", "irregular"}
	chans := []int{4, 1}
	pols := []string{"aps+memside", "padc+memside"}
	spec := runner.Spec{
		Name: "abl-memside", Cores: 4, Insts: insts,
		Policies:    []string{"aps", "padc"},
		Prefetchers: []string{"dspatch"},
		MemSide:     []string{"on"},
		Axes:        map[string][]json.RawMessage{"channels": values(chans...)},
		Workloads: [][]string{
			// Long streams: dense spatial footprints, accurate prefetches.
			{"swim", "libquantum", "bwaves", "leslie3d"},
			// Pointer chases and bursts: sparse footprints, low accuracy.
			{"art", "omnetpp", "xalancbmk", "mcf"},
		},
	}
	return Sweep{
		Spec: spec,
		Reduce: func(res *runner.SweepResult) *Table {
			g := machines(res)
			t := &Table{
				Title: "Ablation: memory-side prefetching — DSPatch bias x PADC gating (4-core)",
				Header: []string{"mix", "chans", "policy", "thruput", "headroom",
					"covp", "accp", "ms-issued", "ms-used", "ms-acc", "ms-gated"},
			}
			for mi, mix := range mixes {
				for ci, ch := range chans {
					for pi, pol := range pols {
						j := g[pi*len(chans)+ci][mi]
						t.Add(mix, fmt.Sprintf("%d", ch), pol,
							fmt.Sprintf("%.3f", j.Throughput),
							fmt.Sprintf("%.2f", j.Telemetry["dspatch/headroom"]),
							fmt.Sprintf("%d", tel(j, "dspatch/covp_triggers")),
							fmt.Sprintf("%d", tel(j, "dspatch/accp_triggers")),
							fmt.Sprintf("%d", tel(j, "memside/issued")),
							fmt.Sprintf("%d", tel(j, "memside/used")),
							fmt.Sprintf("%.1f%%", j.Telemetry["memside/acc"]*100),
							fmt.Sprintf("%d", tel(j, "memside/gate_closed")))
					}
				}
			}
			return t
		},
	}
}

// AblationAddressMapping compares the default row-interleaved bank mapping
// against permutation-based mapping and a single-bank strawman, isolating
// how much of each policy's behavior depends on bank-level parallelism.
func AblationAddressMapping(sc Scale) Sweep {
	policies := []string{"demand-first", "equal", "aps", "padc"}
	spec := multi("abl-map", 4, sc, policies, mixNames(Mixes(4, sc.Mixes4)))
	// banks × permutation; the 4- and 16-bank permuted machines go unread.
	spec.Axes = map[string][]json.RawMessage{"banks": values(8, 4, 16), "permutation": values(false, true)}
	var picks []pick
	for pi, pol := range policies {
		picks = append(picks, pick{label(pol), []int{6 * pi, 6*pi + 1, 6*pi + 2, 6*pi + 4}})
	}
	return Sweep{spec, wsTable("Ablation: bank count and mapping (4-core WS)",
		[]string{"policy", "8-banks", "8-banks-perm", "4-banks", "16-banks"}, picks)}
}

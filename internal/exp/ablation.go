package exp

import (
	"fmt"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/topology"
	"padc/internal/workload"
)

// AblationDropThreshold compares APD's dynamic 4-level drop-threshold
// ladder (Table 6) against fixed thresholds. The paper argues (§4.3) that
// a single static threshold either drops useful prefetches of accurate
// phases (too low) or retains useless ones too long (too high); the
// dynamic ladder should match or beat every static point on both WS and
// traffic.
func AblationDropThreshold(sc Scale) *Table {
	mk := func(name string, ladder []core.DropLevel) Variant {
		return Variant{name, func(c *sim.Config) {
			c.Policy = memctrl.APS
			c.PADC.EnableAPD = true
			if ladder != nil {
				c.PADC.DropLadder = ladder
			}
		}}
	}
	fixed := func(cycles uint64) []core.DropLevel {
		return []core.DropLevel{{AccuracyBelow: 1.01, Cycles: cycles}}
	}
	variants := []Variant{
		DemandFirst(),
		APSOnly(),
		mk("apd-fixed-100", fixed(100)),
		mk("apd-fixed-1500", fixed(1_500)),
		mk("apd-fixed-50K", fixed(50_000)),
		mk("apd-fixed-100K", fixed(100_000)),
		mk("apd-dynamic (PADC)", nil),
	}
	mixes := Mixes(4, sc.Mixes4)
	t := &Table{
		Title:  "Ablation: APD drop-threshold ladder vs fixed thresholds (4-core)",
		Header: []string{"policy", "WS", "bus(K)", "dropped"},
	}
	alone := NewAloneIPC()
	type acc struct {
		ws, bus float64
		drop    uint64
	}
	grid := make([][]acc, len(variants))
	for vi := range grid {
		grid[vi] = make([]acc, len(mixes))
	}
	type job struct{ vi, mi int }
	var jobs []job
	for vi := range variants {
		for mi := range mixes {
			jobs = append(jobs, job{vi, mi})
		}
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		r := RunMix(mixes[j.mi], 4, sc, variants[j.vi], alone, nil)
		grid[j.vi][j.mi] = acc{r.WS, float64(r.Bus.Total()), r.Dropped}
	})
	for vi, v := range variants {
		var a acc
		for mi := range mixes {
			a.ws += grid[vi][mi].ws
			a.bus += grid[vi][mi].bus
			a.drop += grid[vi][mi].drop
		}
		n := float64(len(mixes))
		t.Add(v.Name, fmt.Sprintf("%.3f", a.ws/n), fmt.Sprintf("%.1f", a.bus/n/1000),
			fmt.Sprintf("%d", a.drop/uint64(len(mixes))))
	}
	return t
}

// AblationPromotionThreshold sweeps APS's promotion threshold around the
// paper's 85%: too low promotes junk to demand priority, too high never
// promotes and degenerates to demand-first.
func AblationPromotionThreshold(sc Scale) *Table {
	var variants []Variant
	variants = append(variants, DemandFirst(), DemandPrefEqual())
	for _, th := range []float64{0.25, 0.50, 0.75, 0.85, 0.95} {
		th := th
		variants = append(variants, Variant{
			Name: fmt.Sprintf("aps@%.0f%%", th*100),
			Apply: func(c *sim.Config) {
				c.Policy = memctrl.APS
				c.PADC.PromotionThreshold = th
				c.PADC.EnableAPD = false
			},
		})
	}
	points := []sweepPoint{{Label: "WS", Mutate: nil}}
	return sweepVariantsOverMixesOn(Mixes(4, sc.Mixes4),
		"Ablation: APS promotion threshold sweep (4-core)", sc, variants, points)
}

// AblationRuleOrder ablates the scheduler's priority-rule ordering itself
// (the paper's actual contribution, §5–6): the same rule vocabulary is
// recomposed into different stacks through the sched kernel — APS with
// rules reordered or removed, the §6.5 ranking appended, and plain
// FR-FCFS as the floor. The APS order (criticality above row locality,
// urgency below it) should dominate its permutations.
func AblationRuleOrder(sc Scale) *Table {
	variants := []Variant{
		RuleStack("rules:rowhit,fcfs"),                      // FR-FCFS floor
		RuleStack("rules:critical,rowhit,urgent,fcfs"),      // APS (§5.1 order)
		RuleStack("rules:rowhit,critical,urgent,fcfs"),      // locality above criticality
		RuleStack("rules:critical,urgent,rowhit,fcfs"),      // urgency above locality
		RuleStack("rules:critical,rowhit,fcfs"),             // APS minus urgency
		RuleStack("rules:critical,rowhit,urgent,rank,fcfs"), // APS + §6.5 ranking
	}
	points := []sweepPoint{{Label: "WS", Mutate: nil}}
	return sweepVariantsOverMixesOn(Mixes(4, sc.Mixes4),
		"Ablation: scheduler priority-rule order (4-core WS)", sc, variants, points)
}

// AblationRefresh charges the simulator with DRAM maintenance (a cost the
// paper's evaluation idealizes away) and measures what each refresh mode
// does to the scheduling policies: per-bank REFpb steals one bank at a
// time for tRFCpb, all-bank REF drains the rank and blocks every bank for
// tRFC, and the JEDEC postpone/pull-in window decides when the obligation
// is paid. The page-policy variants show whether the adaptive per-bank
// predictor claws back any of the locality the refresh-induced precharges
// destroy. WS and the maintenance counters are averaged over the mixes.
func AblationRefresh(sc Scale) *Table {
	withPage := func(name string, v Variant, p dram.PagePolicy) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Page = p
		}}
	}
	variants := []Variant{
		DemandFirst(),
		PADC(),
		withPage("PADC-closed-page", PADC(), dram.ClosedPage),
		withPage("PADC-adaptive-page", PADC(), dram.AdaptivePage),
	}
	modes := []refresh.Mode{refresh.Off, refresh.PerBank, refresh.AllBank}
	mixes := Mixes(4, sc.Mixes4)

	type acc struct {
		ws float64
		rf stats.RefreshStats
	}
	grid := make([][]acc, len(variants))
	for vi := range grid {
		grid[vi] = make([]acc, len(modes))
	}
	type job struct{ vi, pi int }
	var jobs []job
	for vi := range variants {
		for pi := range modes {
			jobs = append(jobs, job{vi, pi})
		}
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		mode := modes[j.pi]
		mutate := func(c *sim.Config) { c.DRAM.Refresh.Mode = mode }
		alone := NewAloneIPC() // per job: the alone baseline must see the same refresh mode
		a := acc{}
		for _, mix := range mixes {
			r := RunMix(mix, 4, sc, variants[j.vi], alone, mutate)
			a.ws += r.WS
			a.rf.Issued += r.Res.Refresh.Issued
			a.rf.Postponed += r.Res.Refresh.Postponed
			a.rf.PulledIn += r.Res.Refresh.PulledIn
			a.rf.Forced += r.Res.Refresh.Forced
			a.rf.BlockedCycles += r.Res.Refresh.BlockedCycles
		}
		grid[j.vi][j.pi] = a
	})

	t := &Table{
		Title:  "Ablation: DRAM refresh mode x page policy (4-core)",
		Header: []string{"policy", "refresh", "WS", "refreshes", "postponed", "pulled-in", "forced", "blocked(K)"},
	}
	n := uint64(len(mixes))
	for vi, v := range variants {
		for pi, mode := range modes {
			a := grid[vi][pi]
			t.Add(v.Name, mode.String(),
				fmt.Sprintf("%.3f", a.ws/float64(n)),
				fmt.Sprintf("%d", a.rf.Issued/n),
				fmt.Sprintf("%d", a.rf.Postponed/n),
				fmt.Sprintf("%d", a.rf.PulledIn/n),
				fmt.Sprintf("%d", a.rf.Forced/n),
				fmt.Sprintf("%.1f", float64(a.rf.BlockedCycles)/float64(n)/1000))
		}
	}
	return t
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
func AblationTopology(sc Scale) *Table {
	variants := []Variant{
		DemandFirst(),
		APSOnly(),
		PADC(),
	}
	topos := []string{"flat", "far-tier"}
	mixes := Mixes(4, sc.Mixes4)

	type acc struct {
		ws, bus                        float64
		serviced, farServiced, farSent float64
		farUsed                        float64
	}
	grid := make([][]acc, len(variants))
	for vi := range grid {
		grid[vi] = make([]acc, len(topos))
	}
	type job struct{ vi, ti int }
	var jobs []job
	for vi := range variants {
		for ti := range topos {
			jobs = append(jobs, job{vi, ti})
		}
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		mutate := func(c *sim.Config) {
			var err error
			if c.Topology, err = topology.Resolve(topos[j.ti], c.DRAM.Channels); err != nil {
				panic(err) // the names above are static
			}
		}
		alone := NewAloneIPC() // per job: the alone baseline must see the same wiring
		a := acc{}
		for _, mix := range mixes {
			r := RunMix(mix, 4, sc, variants[j.vi], alone, mutate)
			a.ws += r.WS
			a.bus += float64(r.Bus.Total())
			a.serviced += float64(r.Res.Serviced)
			for _, d := range r.Res.Domains {
				if d.LinkCycles > 0 {
					a.farServiced += float64(d.Serviced)
					a.farSent += float64(d.PrefSent)
					a.farUsed += float64(d.PrefUsed)
				}
			}
		}
		grid[j.vi][j.ti] = a
	})

	t := &Table{
		Title:  "Ablation: memory topology, flat vs far-tier (4-core)",
		Header: []string{"policy", "topology", "WS", "bus(K)", "far-share", "far-acc"},
	}
	n := float64(len(mixes))
	for vi, v := range variants {
		for ti, topo := range topos {
			a := grid[vi][ti]
			farShare, farAcc := "-", "-"
			if a.farServiced > 0 && a.serviced > 0 {
				farShare = fmt.Sprintf("%.1f%%", a.farServiced/a.serviced*100)
			}
			if a.farSent > 0 {
				farAcc = fmt.Sprintf("%.1f%%", a.farUsed/a.farSent*100)
			}
			t.Add(v.Name, topo,
				fmt.Sprintf("%.3f", a.ws/n),
				fmt.Sprintf("%.1f", a.bus/n/1000),
				farShare, farAcc)
		}
	}
	return t
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
func AblationMemSide(sc Scale) *Table {
	// DSPatch trains its signature table on page-buffer turnover, which
	// needs more region traffic than the quick scale generates.
	if sc.Insts < 400_000 {
		sc.Insts = 400_000
	}
	mixes := []struct {
		name  string
		names []string
	}{
		// Long streams: dense spatial footprints, accurate prefetches.
		{"streams", []string{"swim", "libquantum", "bwaves", "leslie3d"}},
		// Pointer chases and bursts: sparse footprints, low accuracy.
		{"irregular", []string{"art", "omnetpp", "xalancbmk", "mcf"}},
	}
	chans := []int{4, 1}
	pols := []struct {
		name string
		apd  bool
	}{
		{"aps+memside", false},
		{"padc+memside", true},
	}

	type cell struct {
		thru float64
		ds   stats.DSPatchStats
		ms   stats.MemSideStats
	}
	grid := make([]cell, len(mixes)*len(chans)*len(pols))
	parallel(len(grid), func(i int) {
		mi := i / (len(chans) * len(pols))
		ci := i / len(pols) % len(chans)
		pi := i % len(pols)
		cfg := baseConfig(4, sc)
		cfg.DRAM.Channels = chans[ci]
		cfg.Policy = memctrl.APS
		cfg.PADC.EnableAPD = pols[pi].apd
		cfg.Prefetcher = sim.PFDSPatch
		cfg.MemSide = true
		for _, n := range mixes[mi].names {
			cfg.Workload = append(cfg.Workload, workload.MustByName(n))
		}
		res := runOne(cfg)
		c := cell{}
		for _, pc := range res.PerCore {
			c.thru += pc.IPC()
		}
		if res.DSPatch != nil {
			c.ds = *res.DSPatch
		}
		if res.MemSide != nil {
			c.ms = *res.MemSide
		}
		grid[i] = c
	})

	t := &Table{
		Title: "Ablation: memory-side prefetching — DSPatch bias x PADC gating (4-core)",
		Header: []string{"mix", "chans", "policy", "thruput", "headroom",
			"covp", "accp", "ms-issued", "ms-used", "ms-acc", "ms-gated"},
	}
	for i, c := range grid {
		mi := i / (len(chans) * len(pols))
		ci := i / len(pols) % len(chans)
		pi := i % len(pols)
		t.Add(mixes[mi].name, fmt.Sprintf("%d", chans[ci]), pols[pi].name,
			fmt.Sprintf("%.3f", c.thru),
			fmt.Sprintf("%.2f", c.ds.Headroom),
			fmt.Sprintf("%d", c.ds.CovPSelected),
			fmt.Sprintf("%d", c.ds.AccPSelected),
			fmt.Sprintf("%d", c.ms.Issued),
			fmt.Sprintf("%d", c.ms.Used),
			fmt.Sprintf("%.1f%%", c.ms.ACC()*100),
			fmt.Sprintf("%d", c.ms.GateClosed))
	}
	return t
}

// AblationAddressMapping compares the default row-interleaved bank mapping
// against permutation-based mapping and a single-bank strawman, isolating
// how much of each policy's behavior depends on bank-level parallelism.
func AblationAddressMapping(sc Scale) *Table {
	points := []sweepPoint{
		{Label: "8-banks", Mutate: nil},
		{Label: "8-banks-perm", Mutate: func(c *sim.Config) { c.DRAM.Permutation = true }},
		{Label: "4-banks", Mutate: func(c *sim.Config) { c.DRAM.Banks = 4 }},
		{Label: "16-banks", Mutate: func(c *sim.Config) { c.DRAM.Banks = 16 }},
	}
	variants := []Variant{DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
	return sweepVariantsOverMixesOn(Mixes(4, sc.Mixes4),
		"Ablation: bank count and mapping (4-core WS)", sc, variants, points)
}

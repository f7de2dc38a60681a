package runner

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/topology"
	"padc/internal/workload"
)

// limitRun is one side of a policy-limit identity: a policy name and an
// optional edit of the lowered config.
type limitRun struct {
	policy string
	edit   func(*sim.Config)
}

// limitIdentity is two runs that must produce equal stats.Results.
type limitIdentity struct {
	name string
	a, b limitRun
}

// promotion sets the APS promotion threshold.
func promotion(th float64) func(*sim.Config) {
	return func(c *sim.Config) { c.PADC.PromotionThreshold = th }
}

// policyLimits are the identities APS and APD reduce to at their limits
// that apply to m:
//   - above a threshold of 1 no prefetch is critical and every demand is,
//     so APS schedules as demand-first;
//   - at or below 0 every prefetch is critical and no demand is urgent,
//     so APS schedules as demand-pref-equal;
//   - with one drop level past the run's end APD never drops, so PADC is
//     APS (the level's empty bottom band keeps the memory-side gate open);
//   - on one core every critical request has the same rank, so the rank
//     stage never decides;
//   - a rules: list runs as the policy whose stack it spells;
//   - with no prefetcher and no memory-side path there are only demands,
//     all critical and none urgent, so APS schedules as demand-first.
func policyLimits(m sim.Machine) []limitIdentity {
	out := []limitIdentity{
		{name: "aps θ=1.5 ≡ demand-first", a: limitRun{"aps", promotion(1.5)}, b: limitRun{policy: "demand-first"}},
		{name: "aps θ=0 ≡ equal", a: limitRun{"aps", promotion(0)}, b: limitRun{policy: "equal"}},
		{name: "aps θ=-1 ≡ equal", a: limitRun{"aps", promotion(-1)}, b: limitRun{policy: "equal"}},
		{
			name: "padc never dropping ≡ aps",
			a: limitRun{"padc", func(c *sim.Config) {
				c.PADC.DropLadder = []core.DropLevel{{AccuracyBelow: 0, Cycles: 1 << 40}}
			}},
			b: limitRun{policy: "aps"},
		},
	}
	if m.Cores == 1 {
		out = append(out,
			limitIdentity{"rank stage on one core", limitRun{policy: "rules:critical,rowhit,urgent,rank"}, limitRun{policy: "rules:critical,rowhit,urgent"}},
			limitIdentity{"padc-rank on one core ≡ padc", limitRun{policy: "padc-rank"}, limitRun{policy: "padc"}})
	}
	if m.Prefetcher == "none" && !m.MemSide {
		out = append(out, limitIdentity{"aps without prefetching ≡ demand-first", limitRun{policy: "aps"}, limitRun{policy: "demand-first"}})
	}
	// Every scheduling-only policy against the rule stack it spells.
	for _, name := range []string{"equal", "demand-first", "prefetch-first", "aps"} {
		d := m
		d.Policy = name
		rc, err := d.Describe()
		if err != nil {
			continue
		}
		out = append(out, limitIdentity{
			name: name + " ≡ " + rc.RuleStack,
			a:    limitRun{policy: name},
			b:    limitRun{policy: rc.RuleStack},
		})
	}
	return out
}

// limitMaxCycles bounds each run of an identity. Go's fuzzing engine
// kills an input that runs for 10 s, and a machine that starves a core
// would otherwise run to sim's 20M-cycle safety bound. A run that hits
// the bound still compares: both sides must stop in the same state.
const limitMaxCycles = 300_000

// limitOutcome is one run's results and error; ok is false when the
// machine is invalid.
type limitOutcome struct {
	res stats.Results
	err error
	ok  bool
}

// limitRunner runs identity sides on one machine and workload. Several
// identities compare against the same unedited policy (aps, equal,
// demand-first), so those runs are made once per kernel.
type limitRunner struct {
	m       sim.Machine
	benches []string
	done    map[string]limitOutcome
}

// run lowers the machine under r's policy, applies r's edit and
// simulates at most limitMaxCycles cycles under kernel.
func (lr *limitRunner) run(r limitRun, kernel sim.Kernel) limitOutcome {
	key := fmt.Sprintf("%s/%d", r.policy, kernel)
	if o, ok := lr.done[key]; ok && r.edit == nil {
		return o
	}
	m := lr.m
	m.Policy = r.policy
	cfg, err := m.Config()
	if err != nil {
		return limitOutcome{}
	}
	cfg.Kernel, cfg.MaxCycles = kernel, limitMaxCycles
	if r.edit != nil {
		r.edit(&cfg)
	}
	for _, b := range lr.benches {
		cfg.Workload = append(cfg.Workload, workload.MustByName(b))
	}
	if cfg.Validate() != nil {
		return limitOutcome{}
	}
	res, err := sim.Run(cfg)
	o := limitOutcome{res: res, err: err, ok: true}
	if r.edit == nil {
		lr.done[key] = o
	}
	return o
}

// check runs both sides of id and fails unless their results, and their
// errors, are equal in full.
func (lr *limitRunner) check(t *testing.T, id limitIdentity, kernel sim.Kernel) {
	t.Helper()
	a, b := lr.run(id.a, kernel), lr.run(id.b, kernel)
	if !a.ok || !b.ok {
		return
	}
	if !reflect.DeepEqual(a.res, b.res) || fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		t.Fatalf("%s fails under kernel %d on %v %+v:\n%s: %d cycles %+v (%v)\n%s: %d cycles %+v (%v)",
			id.name, kernel, lr.benches, lr.m, id.a.policy, a.res.Cycles, a.res.Bus, a.err,
			id.b.policy, b.res.Cycles, b.res.Bus, b.err)
	}
}

// FuzzPolicyLimits draws valid machines the way FuzzMachine does and
// requires every policy-limit identity that applies to hold with equal
// stats.Results. Each input also runs one identity, picked by the input,
// under the stepped kernel. Seeds: the paper's swim/art/libquantum/milc
// and galgel/ammp/omnetpp/leslie3d mixes and single-core mcf and
// libquantum, on the baseline machine.
func FuzzPolicyLimits(f *testing.F) {
	coreCounts := []int{1, 2, 4}
	prefetchers := sim.PrefetcherNames()
	filters := []string{"none", "ddpf", "fdp"}
	topologies := append([]string{"flat"}, topology.Names()...)
	refreshModes := refresh.ModeNames()
	pages := dram.PagePolicyNames()
	names := workload.Names()
	at := func(list []string, s string) uint8 { return uint8(slices.Index(list, s)) }

	// The seeds run the baseline machine (stream prefetcher, urgency on,
	// sizes index 0) at 20k instructions over all cores.
	paper := func(benches ...string) {
		var b [4]uint8
		for i, n := range benches {
			b[i] = at(names, n)
		}
		f.Add(uint8(slices.Index(coreCounts, len(benches))), uint8(0), at(prefetchers, "stream"),
			uint8(0), uint8(0), at(refreshModes, "off"), at(pages, "open"), uint8(0), uint8(1),
			b[0], b[1], b[2], b[3], uint8(9), uint8(0))
	}
	paper("swim", "art", "libquantum", "milc")
	paper("galgel", "ammp", "omnetpp", "leslie3d")
	paper("mcf")
	paper("libquantum")

	f.Fuzz(func(t *testing.T, cores, ch, pf, filter, topo, ref, page, sizes, flags, b0, b1, b2, b3, insts, stepped uint8) {
		n := coreCounts[int(cores)%len(coreCounts)]
		m := sim.DefaultMachine(n)
		// Index 0 of each size keeps the baseline's.
		m.Channels = []int{m.Channels, 2, 4}[int(ch)%3]
		m.Banks = []int{m.Banks, 4, 16}[int(sizes)%3]
		m.RowBufferKB = []uint64{m.RowBufferKB, 2, 8}[int(sizes>>2)%3]
		m.L2KB = []uint64{m.L2KB, 256, 2048}[int(sizes>>4)%3]
		m.Prefetcher = prefetchers[int(pf)%len(prefetchers)]
		m.Filter = filters[int(filter)%len(filters)]
		m.Topology = topologies[int(topo)%len(topologies)]
		m.RefreshMode = refreshModes[int(ref)%len(refreshModes)]
		m.PagePolicy = pages[int(page)%len(pages)]
		m.Urgency = flags&1 != 0
		m.MemSide = flags&2 != 0
		m.SharedL2 = flags&4 != 0
		m.Permutation = flags&8 != 0
		m.Runahead = flags&16 != 0
		// At most 20k instructions over all cores keeps an input's
		// dozen runs well inside the fuzzing engine's 10 s.
		m.TargetInsts = uint64(2_000 * (1 + int(insts)%10) / n)
		benches := make([]string, n)
		for i, b := range []uint8{b0, b1, b2, b3}[:n] {
			benches[i] = names[int(b)%len(names)]
		}

		ids := policyLimits(m)
		lr := &limitRunner{m: m, benches: benches, done: map[string]limitOutcome{}}
		for _, id := range ids {
			lr.check(t, id, sim.KernelEvents)
		}
		lr.check(t, ids[int(stepped)%len(ids)], sim.KernelStepped)
	})
}

// TestPolicyLimitsAreNotVacuous pins that the seeds tell the limits apart
// from their neighbors: on the first paper mix, a promotion threshold
// just above 0 already schedules unlike equal, so θ=0 is a real limit,
// and APS at its default threshold schedules unlike demand-first.
func TestPolicyLimitsAreNotVacuous(t *testing.T) {
	m := sim.DefaultMachine(4)
	m.TargetInsts = 5_000
	benches := []string{"swim", "art", "libquantum", "milc"}
	for _, id := range []limitIdentity{
		{name: "aps θ=1e-12 vs equal", a: limitRun{"aps", promotion(1e-12)}, b: limitRun{policy: "equal"}},
		{name: "aps vs demand-first", a: limitRun{policy: "aps"}, b: limitRun{policy: "demand-first"}},
	} {
		lr := &limitRunner{m: m, benches: benches, done: map[string]limitOutcome{}}
		a, b := lr.run(id.a, sim.KernelEvents), lr.run(id.b, sim.KernelEvents)
		if !a.ok || reflect.DeepEqual(a.res, b.res) {
			t.Errorf("%s: both ran alike on %v, so the seed cannot tell the limit from its neighbor", id.name, benches)
		}
	}
}

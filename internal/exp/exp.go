// Package exp contains one runner per figure and table of the paper's
// evaluation (§6). Each runner builds the simulated systems, executes the
// workloads, and returns a Table holding the same rows or series the paper
// plots, so the benchmark harness (bench_test.go) and the padcsim CLI can
// regenerate every experiment.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"padc/internal/core"
	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/workload"
)

// Scale controls how much simulation an experiment runs: Quick keeps
// test/bench latency low, Full approaches the paper's workload counts.
type Scale struct {
	Insts  uint64 // instructions per core
	Mixes2 int    // 2-core workload count (paper: 54)
	Mixes4 int    // 4-core workload count (paper: 32)
	Mixes8 int    // 8-core workload count (paper: 21)
}

// Quick is the scale used by tests and default benches.
func Quick() Scale { return Scale{Insts: 150_000, Mixes2: 8, Mixes4: 6, Mixes8: 4} }

// Full approaches the paper's scale (use via the CLI; runs take minutes).
func Full() Scale { return Scale{Insts: 400_000, Mixes2: 54, Mixes4: 32, Mixes8: 21} }

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row where numeric cells are formatted with %.3f.
func (t *Table) Addf(label string, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf("%.3f", v))
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, 0, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString(strings.Repeat("-", sum(width)+2*(len(width)-1)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TelemetryTable renders a run's telemetry summary in the experiment
// Table shape, so runners and the CLI can embed observability data under
// their result tables.
func TelemetryTable(tel *telemetry.Telemetry) *Table {
	t := &Table{Title: "telemetry", Header: []string{"metric", "value"}}
	if tel == nil {
		t.Add("telemetry", "disabled")
		return t
	}
	for _, name := range tel.Names() {
		v, _ := tel.Value(name)
		t.Add(name, fmt.Sprintf("%.4g", v))
	}
	counts := tel.EventCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Add("events/"+k, fmt.Sprintf("%d", counts[k]))
	}
	return t
}

// Variant is one system configuration under test.
type Variant struct {
	Name  string
	Apply func(*sim.Config)
}

// policy is the variant labelled label that applies the sim.ApplyPolicy
// name pol.
func policy(label, pol string) Variant {
	return Variant{label, func(c *sim.Config) {
		if err := sim.ApplyPolicy(c, pol); err != nil {
			panic(err)
		}
	}}
}

// NoPref disables prefetching entirely.
func NoPref() Variant { return policy("no-pref", "no-pref") }

// DemandFirst is the paper's baseline rigid policy.
func DemandFirst() Variant { return policy("demand-first", "demand-first") }

// DemandPrefEqual is plain FR-FCFS.
func DemandPrefEqual() Variant { return policy("demand-pref-equal", "equal") }

// PrefetchFirst is the footnote-2 strawman.
func PrefetchFirst() Variant { return policy("prefetch-first", "prefetch-first") }

// APSOnly enables adaptive scheduling without dropping.
func APSOnly() Variant { return policy("aps-only", "aps") }

// PADC is the full mechanism: APS plus APD.
func PADC() Variant { return policy("aps-apd (PADC)", "padc") }

// PADCRank is PADC with the §6.5 shortest-job ranking.
func PADCRank() Variant { return policy("PADC-rank", "padc-rank") }

// RuleStack schedules with an explicit priority-rule stack from the
// sched kernel (e.g. "rules:critical,rowhit,urgent,fcfs"). APD is off so
// the run isolates the priority order under study.
func RuleStack(rules string) Variant { return policy(rules, rules) }

// StandardVariants returns the five configurations most figures compare.
func StandardVariants() []Variant {
	return []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
}

// baseConfig builds the paper baseline for ncores at the given scale. The
// default PADC config has both mechanisms on; variants adjust.
func baseConfig(ncores int, sc Scale) sim.Config {
	cfg := sim.Baseline(ncores)
	cfg.TargetInsts = sc.Insts
	cfg.PADC = core.DefaultConfig()
	return cfg
}

// runOne builds and runs a single system; errors surface as panics since
// experiment configs are statically correct by construction.
func runOne(cfg sim.Config) stats.Results {
	res, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return res
}

// parallel fans n jobs out on the shared worker pool (internal/runner);
// the padcsim -jobs flag sizes it process-wide.
func parallel(n int, job func(i int)) { runner.Parallel(n, job) }

// AloneIPC computes each benchmark's IPC when running alone on the
// ncores-provisioned system with the demand-first policy (the paper's
// IPC_alone definition), memoized per provisioning.
type AloneIPC struct {
	mu    sync.Mutex
	cache map[string]float64
}

// NewAloneIPC returns an empty cache.
func NewAloneIPC() *AloneIPC { return &AloneIPC{cache: make(map[string]float64)} }

// Get returns IPC_alone for prof under the given provisioning, computing
// and caching it on first use. mutate optionally applies non-policy system
// changes (cache size, channels, ...) that must match the together-run.
func (a *AloneIPC) Get(prof workload.Profile, ncores int, sc Scale, mutate func(*sim.Config)) float64 {
	key := fmt.Sprintf("%s/%d", prof.Name, ncores)
	if mutate != nil {
		key += "/mut"
	}
	a.mu.Lock()
	if v, ok := a.cache[key]; ok {
		a.mu.Unlock()
		return v
	}
	a.mu.Unlock()

	cfg := baseConfig(ncores, sc)
	cfg.Policy = memctrl.DemandFirst
	cfg.PADC.EnableAPD = false
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Workload = []workload.Profile{prof}
	res := runOne(cfg)
	v := res.PerCore[0].IPC()

	a.mu.Lock()
	a.cache[key] = v
	a.mu.Unlock()
	return v
}

// MixResult summarizes one multiprogrammed run.
type MixResult struct {
	WS, HS, UF float64
	Bus        stats.BusTraffic
	Dropped    uint64
	IS         []float64
	Res        stats.Results
}

// RunMix executes mix under variant v on an ncores system and computes the
// speedup metrics against the demand-first alone baselines.
func RunMix(mix []workload.Profile, ncores int, sc Scale, v Variant, alone *AloneIPC, mutate func(*sim.Config)) MixResult {
	cfg := baseConfig(ncores, sc)
	if mutate != nil {
		mutate(&cfg)
	}
	v.Apply(&cfg)
	cfg.Workload = append([]workload.Profile(nil), mix...)
	res := runOne(cfg)

	ipcAlone := make([]float64, len(mix))
	for i, p := range mix {
		ipcAlone[i] = alone.Get(p, ncores, sc, mutate)
	}
	return MixResult{
		WS:      stats.WS(res.PerCore, ipcAlone),
		HS:      stats.HS(res.PerCore, ipcAlone),
		UF:      stats.UF(res.PerCore, ipcAlone),
		Bus:     res.Bus,
		Dropped: res.Dropped,
		IS:      stats.IndividualSpeedups(res.PerCore, ipcAlone),
		Res:     res,
	}
}

// AverageMixes runs every mix under every variant and returns per-variant
// averaged WS/HS/UF/traffic — the shape of Figures 9, 16, 17, 19–22.
func AverageMixes(mixes [][]workload.Profile, ncores int, sc Scale, variants []Variant, mutate func(*sim.Config)) *Table {
	alone := NewAloneIPC()
	// Warm the alone cache in parallel first.
	uniq := map[string]workload.Profile{}
	for _, m := range mixes {
		for _, p := range m {
			uniq[p.Name] = p
		}
	}
	names := make([]string, 0, len(uniq))
	for n := range uniq {
		names = append(names, n)
	}
	sort.Strings(names)
	parallel(len(names), func(i int) { alone.Get(uniq[names[i]], ncores, sc, mutate) })

	type cell struct{ ws, hs, uf, bus float64 }
	agg := make([][]cell, len(variants))
	for vi := range variants {
		agg[vi] = make([]cell, len(mixes))
	}
	type job struct{ vi, mi int }
	jobs := make([]job, 0, len(variants)*len(mixes))
	for vi := range variants {
		for mi := range mixes {
			jobs = append(jobs, job{vi, mi})
		}
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		r := RunMix(mixes[j.mi], ncores, sc, variants[j.vi], alone, mutate)
		agg[j.vi][j.mi] = cell{r.WS, r.HS, r.UF, float64(r.Bus.Total())}
	})

	t := &Table{
		Title:  fmt.Sprintf("%d-core average over %d workloads", ncores, len(mixes)),
		Header: []string{"policy", "WS", "HS", "UF", "bus(Klines)"},
	}
	for vi, v := range variants {
		var ws, hs, uf, bus float64
		for _, c := range agg[vi] {
			ws += c.ws
			hs += c.hs
			uf += c.uf
			bus += c.bus
		}
		n := float64(len(mixes))
		t.Addf(v.Name, ws/n, hs/n, uf/n, bus/n/1000)
	}
	return t
}

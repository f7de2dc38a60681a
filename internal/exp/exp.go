// Package exp holds every figure and table of the paper's evaluation (§6).
// A simulated figure is a Sweep: a runner.Spec whose rows hold every
// simulation the figure needs, alone baselines included, and a reducer
// that renders the merged rows as a Table with the rows or series the
// paper plots. Figures therefore run on the one sweep engine, with its
// sharding, resume and sweepd service; the benchmark harness
// (bench_test.go) and the padcsim CLI regenerate every experiment.
package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"padc/internal/runner"
	"padc/internal/telemetry"
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

// Sweep is a simulated figure or table on the sweep engine: the spec
// whose rows hold every simulation the figure needs, and the reducer
// that renders the merged rows as the figure's table.
type Sweep struct {
	Spec   runner.Spec
	Reduce func(*runner.SweepResult) *Table
}

// Run executes the sweep on the runner's default worker pool (padcsim
// -jobs sizes it) and reduces the merged rows. Figure specs are correct
// by construction, so a spec error or a failed job panics.
func (s Sweep) Run() *Table {
	res, err := runner.Run(s.Spec, runner.Options{})
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	for _, j := range res.Jobs {
		if j.Err != "" {
			panic(fmt.Sprintf("exp: job %s: %s", j.Key, j.Err))
		}
	}
	return s.Reduce(res)
}

// standard is the five policies most figures compare.
var standard = []string{"no-pref", "demand-first", "equal", "aps", "padc"}

// labels maps sweep policy names to the labels the figures print; every
// other name prints as itself.
var labels = map[string]string{
	"equal":     "demand-pref-equal",
	"aps":       "aps-only",
	"padc":      "aps-apd (PADC)",
	"padc-rank": "PADC-rank",
}

// label returns the display label of a sweep policy name.
func label(policy string) string {
	if l, ok := labels[policy]; ok {
		return l
	}
	return policy
}

// aloneDemandFirst is the paper's IPC_alone baseline (§6): each benchmark
// alone on the same machine under demand-first scheduling.
var aloneDemandFirst = json.RawMessage(`{"policy":"demand-first"}`)

// values renders generic axis values as the JSON a spec carries.
func values[T any](vs ...T) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i], _ = json.Marshal(v)
	}
	return out
}

// multi is the ncores-core sweep of policies over explicit mixes, with
// the paper's demand-first alone baselines.
func multi(name string, ncores int, sc Scale, policies []string, mixes [][]string) runner.Spec {
	return runner.Spec{Name: name, Cores: ncores, Insts: sc.Insts, Policies: policies,
		Workloads: mixes, Alone: aloneDemandFirst}
}

// machines groups a complete sweep's grid rows by machine in grid order,
// each machine's rows in mix order; baseline rows are left out.
func machines(res *runner.SweepResult) [][]runner.JobResult {
	var rows []runner.JobResult
	for _, j := range res.Jobs {
		if !j.IsBaseline() {
			rows = append(rows, j)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Index < rows[b].Index })
	nmixes := len(res.Spec.Workloads) + res.Spec.Mixes
	out := make([][]runner.JobResult, len(rows)/nmixes)
	for m := range out {
		out[m] = rows[m*nmixes : (m+1)*nmixes]
	}
	return out
}

// mean averages f over a machine's rows, summing in mix order.
func mean(rows []runner.JobResult, f func(runner.JobResult) float64) float64 {
	var s float64
	for _, j := range rows {
		s += f(j)
	}
	return s / float64(len(rows))
}

func ws(j runner.JobResult) float64 { return j.WS }
func hs(j runner.JobResult) float64 { return j.HS }
func uf(j runner.JobResult) float64 { return j.UF }

// bus is a row's total bus traffic in cache lines.
func bus(j runner.JobResult) float64 { return float64(j.BusDemand + j.BusUseful + j.BusUseless) }

// tel reads a row's telemetry roll-up as a count.
func tel(j runner.JobResult, name string) uint64 { return uint64(j.Telemetry[name]) }

// pick is one table row: its label and the grid machines its cells
// average, one per column.
type pick struct {
	label    string
	machines []int
}

// crossPicks labels each policy's row of a policies × ncols grid.
func crossPicks(policies []string, ncols int) []pick {
	out := make([]pick, len(policies))
	for pi, pol := range policies {
		out[pi].label = label(pol)
		for c := 0; c < ncols; c++ {
			out[pi].machines = append(out[pi].machines, pi*ncols+c)
		}
	}
	return out
}

// wsTable renders each picked machine's WS averaged over the mixes.
func wsTable(title string, header []string, picks []pick) func(*runner.SweepResult) *Table {
	return func(res *runner.SweepResult) *Table {
		g := machines(res)
		t := &Table{Title: title, Header: header}
		for _, p := range picks {
			row := []string{p.label}
			for _, m := range p.machines {
				row = append(row, fmt.Sprintf("%.3f", mean(g[m], ws)))
			}
			t.Add(row...)
		}
		return t
	}
}

package padc

import (
	"fmt"
	"strings"

	"padc/internal/exp"
	"padc/internal/runner"
)

// sweeps maps the simulated experiment ids (the paper's figure/table
// numbers) to their sweeps; see DESIGN.md for the per-experiment index.
var sweeps = map[string]func(sc exp.Scale) exp.Sweep{
	"fig1":  exp.Fig1,
	"fig6":  func(sc exp.Scale) exp.Sweep { return exp.Fig6(sc, sc.Insts >= 400_000) },
	"fig7":  exp.Fig7,
	"fig8":  exp.Fig8,
	"tab5":  func(sc exp.Scale) exp.Sweep { return exp.Table5(sc, sc.Insts >= 400_000) },
	"tab7":  exp.Table7,
	"fig9":  exp.Fig9,
	"fig10": exp.Fig10,
	"fig12": exp.Fig12,
	"fig14": exp.Fig14,
	"tab8":  exp.Table8,
	"tab9":  func(sc exp.Scale) exp.Sweep { return exp.Table9("libquantum", sc) },
	"tab10": func(sc exp.Scale) exp.Sweep { return exp.Table9("milc", sc) },
	"fig16": exp.Fig16,
	"fig17": exp.Fig17,
	"fig19": func(sc exp.Scale) exp.Sweep { return exp.Fig19(4, sc) },
	"fig20": func(sc exp.Scale) exp.Sweep { return exp.Fig19(8, sc) },
	"fig21": func(sc exp.Scale) exp.Sweep { return exp.Fig21(4, sc) },
	"fig22": func(sc exp.Scale) exp.Sweep { return exp.Fig21(8, sc) },
	"fig23": exp.Fig23,
	"fig24": exp.Fig24,
	"fig25": exp.Fig25,
	"fig26": func(sc exp.Scale) exp.Sweep { return exp.Fig26(4, sc) },
	"fig27": func(sc exp.Scale) exp.Sweep { return exp.Fig26(8, sc) },
	"fig28": exp.Fig28,
	"fig29": exp.Fig29,
	"fig31": exp.Fig31,
	"fig32": exp.Fig32,
	// Ablations beyond the paper: design-choice studies DESIGN.md calls out.
	"abl-drop":     exp.AblationDropThreshold,
	"abl-prom":     exp.AblationPromotionThreshold,
	"abl-map":      exp.AblationAddressMapping,
	"abl-rules":    exp.AblationRuleOrder,
	"abl-refresh":  exp.AblationRefresh,
	"abl-topology": exp.AblationTopology,
	"abl-memside":  exp.AblationMemSide,
}

// experimentRegistry maps every experiment id to its runner: the sweeps,
// plus the three experiments that are no sweep — fig2 and tab1 simulate
// nothing, and fig4 reads per-run traces no sweep row carries.
var experimentRegistry = func() map[string]func(sc exp.Scale) []*exp.Table {
	reg := map[string]func(sc exp.Scale) []*exp.Table{
		"fig2": func(exp.Scale) []*exp.Table { return []*exp.Table{exp.Fig2()} },
		"fig4": func(sc exp.Scale) []*exp.Table {
			h, tr := exp.Fig4(sc)
			return []*exp.Table{h, tr}
		},
		"tab1": func(exp.Scale) []*exp.Table { return []*exp.Table{exp.Table1()} },
	}
	for id, sweep := range sweeps {
		reg[id] = func(sc exp.Scale) []*exp.Table { return []*exp.Table{sweep(sc).Run()} }
	}
	return reg
}()

// ExperimentIDs lists every reproducible figure/table id.
func ExperimentIDs() []string { return sortedKeys(experimentRegistry) }

// Experiment regenerates the given paper figure or table and returns it
// rendered as aligned text. full selects the paper-scale workload counts
// (slow); otherwise a quick scale is used.
func Experiment(id string, full bool) (string, error) {
	run, ok := experimentRegistry[id]
	if !ok {
		return "", fmt.Errorf("padc: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
	sc := exp.Quick()
	if full {
		sc = exp.Full()
	}
	var b strings.Builder
	for _, t := range run(sc) {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// SweepSpec re-exports the declarative sweep description the parallel
// sweep engine expands (see internal/runner).
type SweepSpec = runner.Spec

// SweepOptions re-exports the engine's execution options (worker count,
// invariant verification, progress callback).
type SweepOptions = runner.Options

// SweepResult re-exports the merged, deterministic sweep outcome with its
// WriteCSV / WriteJSON exporters and wall-clock Stats.
type SweepResult = runner.SweepResult

// SweepJob re-exports one merged job row of a sweep.
type SweepJob = runner.JobResult

// ParseSweepSpec decodes and validates a JSON sweep spec.
func ParseSweepSpec(data []byte) (SweepSpec, error) { return runner.ParseSpec(data) }

// Sweep expands the spec into its cartesian job grid and runs it on a
// bounded worker pool. The merged result is deterministic: the same spec
// produces byte-identical WriteCSV/WriteJSON output for any worker count.
func Sweep(spec SweepSpec, opts SweepOptions) (*SweepResult, error) {
	return runner.Run(spec, opts)
}

// MergeSweepRows reassembles job rows — collected from a remote row
// stream or from the shards of a distributed campaign — into the same
// key-sorted, deterministic SweepResult an in-process Sweep produces.
func MergeSweepRows(spec SweepSpec, rows []SweepJob) *SweepResult {
	return runner.MergeRows(spec, rows)
}

// RenderSweep renders the merged sweep as an aligned-text table (the same
// renderer the paper experiments use).
func RenderSweep(r *SweepResult) string {
	header, rows := r.TableData()
	t := &exp.Table{Title: "sweep: " + r.Spec.Name, Header: header, Rows: rows}
	return t.String()
}

// SetJobs bounds the process-wide worker pool used by Sweep and by the
// experiments' sweeps; n <= 0 restores the GOMAXPROCS default.
func SetJobs(n int) { runner.SetDefaultWorkers(n) }

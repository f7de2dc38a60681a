package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// csvHeader is the fixed column set of the merged CSV artifact. Per-core
// and roll-up metrics live in the JSON export; the CSV keeps the columns
// every sweep shares so goldens stay small and diffable.
var csvHeader = []string{
	"key", "policy", "prefetcher", "mix", "workloads", "seed", "err",
	"cycles", "throughput", "ipc",
	"bus_demand", "bus_useful", "bus_useless", "serviced",
	"row_hit_rate", "rbhu",
	"pref_sent", "pref_used", "pref_dropped",
}

// WriteCSV writes the merged sweep as CSV: one row per job in job-key
// order, plus ws, hs and uf columns when the spec sets Alone. Output is a
// pure function of the spec (no timestamps, no wall-clock fields), so
// runs with different worker counts are byte-identical.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := csvHeader
	if r.Spec.Alone != nil {
		header = append(slices.Clip(header), "ws", "hs", "uf")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, j := range r.Jobs {
		ipcs := make([]string, len(j.IPC))
		for i, v := range j.IPC {
			ipcs[i] = formatFloat(v)
		}
		row := []string{
			j.Key, j.Policy, j.Prefetcher, j.Mix, strings.Join(j.Workloads, "+"),
			fmt.Sprintf("%d", j.Seed), firstLine(j.Err),
			fmt.Sprintf("%d", j.Cycles), formatFloat(j.Throughput), strings.Join(ipcs, " "),
			fmt.Sprintf("%d", j.BusDemand), fmt.Sprintf("%d", j.BusUseful),
			fmt.Sprintf("%d", j.BusUseless), fmt.Sprintf("%d", j.Serviced),
			formatFloat(j.RowHitRate), formatFloat(j.RBHU),
			fmt.Sprintf("%d", j.PrefSent), fmt.Sprintf("%d", j.PrefUsed),
			fmt.Sprintf("%d", j.PrefDropped),
		}
		if r.Spec.Alone != nil {
			row = append(row, speedupCells(j, formatFloat)...)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the merged sweep (spec + jobs, including per-job
// telemetry roll-ups) as indented JSON. Like the CSV it contains no
// execution-order- or clock-dependent fields.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	// The kernel is a loop-strategy switch, not a grid axis: both kernels
	// produce identical rows, so the echoed spec drops it to keep the
	// artifact byte-identical across kernels (and kernel spellings).
	out := *r
	out.Spec.Kernel = ""
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// formatFloat renders metric floats at fixed precision so artifacts are
// stable across Go versions' shortest-float heuristics.
func formatFloat(v float64) string { return fmt.Sprintf("%.6f", v) }

// firstLine truncates multi-line errors (panic stacks) to their headline
// for the tabular artifacts; the JSON export keeps the full text.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// speedupCells renders a row's WS, HS and UF, or empty cells when the
// merge left them empty.
func speedupCells(j JobResult, format func(float64) string) []string {
	if j.Speedup == nil {
		return []string{"", "", ""}
	}
	return []string{format(j.WS), format(j.HS), format(j.UF)}
}

// TableData returns the merged sweep as an aligned-text-ready header and
// rows (the exp.Table shape), for the CLI and examples to render. WS, HS
// and UF columns appear when the spec sets Alone.
func (r *SweepResult) TableData() (header []string, rows [][]string) {
	header = []string{"job", "cycles", "thruput", "bus(D/U/X)", "rowhit", "rbhu", "sent", "used", "dropped"}
	if r.Spec.Alone != nil {
		header = append(header, "WS", "HS", "UF")
	}
	header = append(header, "status")
	for _, j := range r.Jobs {
		status := "ok"
		if j.Err != "" {
			status = "FAILED: " + firstLine(j.Err)
		}
		row := []string{
			j.Key,
			fmt.Sprintf("%d", j.Cycles),
			fmt.Sprintf("%.3f", j.Throughput),
			fmt.Sprintf("%d/%d/%d", j.BusDemand, j.BusUseful, j.BusUseless),
			fmt.Sprintf("%.3f", j.RowHitRate),
			fmt.Sprintf("%.3f", j.RBHU),
			fmt.Sprintf("%d", j.PrefSent),
			fmt.Sprintf("%d", j.PrefUsed),
			fmt.Sprintf("%d", j.PrefDropped),
		}
		if r.Spec.Alone != nil {
			row = append(row, speedupCells(j, func(v float64) string { return fmt.Sprintf("%.3f", v) })...)
		}
		rows = append(rows, append(row, status))
	}
	return header, rows
}

package exp

import (
	"fmt"

	"padc/internal/cpu"
	"padc/internal/stats"
)

// ProfileTable renders the per-core cycle-accounting profile of a run:
// one row per core, one column per cpu.CycleClass, each cell the percent
// of that core's cycles (to its instruction target) attributed to the
// class. The classes partition runtime, so every row sums to 100% up to
// rounding — the identity the profiler guarantees. Cores without an
// attribution (profiling off) are skipped.
func ProfileTable(res stats.Results) *Table {
	header := append([]string{"core", "benchmark"}, cpu.CycleClassNames()...)
	header = append(header, "cycles")
	t := &Table{Title: "cycle attribution (% of core cycles to target)", Header: header}
	for i, c := range res.PerCore {
		attr := c.Attribution
		if len(attr) == 0 {
			continue
		}
		var total uint64
		for _, v := range attr {
			total += v
		}
		row := []string{fmt.Sprintf("%d", i), c.Benchmark}
		for _, v := range attr {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(v) / float64(total)
			}
			row = append(row, fmt.Sprintf("%.1f%%", pct))
		}
		row = append(row, fmt.Sprintf("%d", total))
		t.Rows = append(t.Rows, row)
	}
	if len(t.Rows) == 0 {
		t.Add("profiling", "disabled")
	}
	return t
}

package runner

import (
	"strings"
	"testing"

	"padc/internal/stats"
)

// TestVerifyMemSideConservation feeds VerifyResults one violation of
// each memory-side conservation inequality and expects exactly that
// error; the stress8 counters themselves must pass.
func TestVerifyMemSideConservation(t *testing.T) {
	ok := stats.MemSideStats{
		Generated: 193138, Enqueued: 101009, Issued: 52130, Filtered: 13757,
		DroppedOverflow: 35702, DroppedStale: 12985, Serviced: 52120, Used: 18147,
	}
	if errs := VerifyResults(stats.Results{MemSide: &ok}, nil); len(errs) != 0 {
		t.Fatalf("consistent memside counters rejected: %v", errs)
	}
	if errs := VerifyResults(stats.Results{}, nil); len(errs) != 0 {
		t.Fatalf("run without the memside path rejected: %v", errs)
	}
	cases := []struct {
		name   string
		mutate func(m *stats.MemSideStats)
		want   string
	}{
		{"admitted beyond generated", func(m *stats.MemSideStats) { m.Filtered = m.Generated - m.Enqueued + 1 }, "filtered"},
		{"left the list beyond admitted", func(m *stats.MemSideStats) { m.DroppedPressure = m.Enqueued }, "enqueued"},
		{"terminal beyond issued", func(m *stats.MemSideStats) { m.Dropped = m.Issued - m.Serviced + 1 }, "issued"},
		{"used beyond serviced", func(m *stats.MemSideStats) { m.Used = m.Serviced + 1 }, "used"},
	}
	for _, c := range cases {
		m := ok
		c.mutate(&m)
		errs := VerifyResults(stats.Results{MemSide: &m}, nil)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("%s: got %v, want one error mentioning %q", c.name, errs, c.want)
		}
	}
}

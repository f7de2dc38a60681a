package main

import (
	"strings"
	"testing"
)

var steady = []float64{2.00, 2.02, 1.99, 2.01, 2.03, 1.98, 2.00, 2.01, 1.99, 2.02}

func scaledBy(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	wide := []float64{2.0, 1.4, 2.6, 1.7, 2.3, 1.5, 2.5, 1.9, 2.1, 2.8}
	for _, tc := range []struct {
		name        string
		base, new   []float64
		lowerBetter bool
		want        string
	}{
		{"identical sets", steady, steady, true, "unchanged"},
		{"15% slower", steady, scaledBy(steady, 1.15), true, "worse"},
		{"15% less throughput", steady, scaledBy(steady, 1/1.15), false, "worse"},
		{"5% slower, inside the bound", steady, scaledBy(steady, 1.05), true, "unchanged"},
		{"wide spread", steady, wide, true, "unresolved"},
		{"15% faster", steady, scaledBy(steady, 1/1.15), true, "better"},
		{"wide but every run faster", steady, []float64{1.0, 1.5, 0.8, 1.2, 1.6, 0.9, 1.1, 1.3, 0.7, 1.4}, true, "better"},
	} {
		if got := judge(tc.base, tc.new, tc.lowerBetter, 0.10).outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCompareReportsDigests(t *testing.T) {
	bounds := []boundDef{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}}
	run := func(seed uint64, digest string, wall float64) *result {
		return &result{Workload: "paper4", Seed: seed, Digest: digest,
			Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}}
	}
	base := []*result{run(1, "aa", 2.0), run(2, "bb", 2.01), run(3, "cc", 1.99)}
	var out strings.Builder
	if ok, err := compareReports(&out, bounds, base, []*result{run(1, "aa", 2.0), run(2, "bb", 2.0), run(3, "cc", 2.0)}); err != nil || !ok {
		t.Errorf("same digests and times: pass = %v, %v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareReports(&out, bounds, base, []*result{run(1, "aa", 2.0), run(2, "xx", 2.0)}); err != nil || ok || !strings.Contains(out.String(), "DIFFER") {
		t.Errorf("changed digest: pass = %v, %v\n%s", ok, err, out.String())
	}
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// gainWins is the share of paired runs the new side must win before a
// difference counts as a gain.
const gainWins = 0.9

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// verdict is the outcome for one (workload, end-to-end metric) pair:
// "better" needs at least gainWins of the paired runs won and a median
// difference wider than the base side's interquartile range; "worse"
// means the median moved the wrong way by more than the metric's bound;
// "unresolved" means either side's spread exceeds the bound, so no
// regression can be ruled out (unless every new run beats every base
// run); anything else is "unchanged".
type verdict struct {
	base, new stat
	change    float64 // relative change of the medians; positive is worse
	wins      int     // paired runs the new side won (ties count for neither)
	pairs     int
	outcome   string
}

// stat summarizes one side's per-run values.
type stat struct {
	median, q1, q3 float64
	n              int
}

func summarize(xs []float64) stat {
	q1, q3 := quartiles(xs)
	return stat{median(xs), q1, q3, len(xs)}
}

func judge(base, nw []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{base: summarize(base), new: summarize(nw), pairs: min(len(base), len(nw))}
	beats := func(a, b float64) bool { return (lowerBetter && a < b) || (!lowerBetter && a > b) }
	for i := 0; i < v.pairs; i++ {
		if beats(nw[i], base[i]) {
			v.wins++
		}
	}
	bm, nm := v.base.median, v.new.median
	v.change = ratio(nm-bm, math.Abs(bm))
	if !lowerBetter {
		v.change = -v.change
	}
	spread := math.Max(ratio(v.base.q3-v.base.q1, math.Abs(bm)), ratio(v.new.q3-v.new.q1, math.Abs(nm)))
	bBest, bWorst := bestWorst(base, lowerBetter)
	nBest, nWorst := bestWorst(nw, lowerBetter)
	allBetter := beats(nWorst, bBest)
	allWorse := beats(bWorst, nBest)
	switch {
	case v.pairs > 0 && float64(v.wins) >= gainWins*float64(v.pairs) && beats(nm, bm) && math.Abs(nm-bm) > v.base.q3-v.base.q1:
		v.outcome = "better"
	case allWorse && v.change > bound:
		v.outcome = "worse"
	case spread > bound && !allBetter:
		v.outcome = "unresolved"
	case v.change > bound:
		v.outcome = "worse"
	default:
		v.outcome = "unchanged"
	}
	return v
}

// bestWorst returns the best and worst of xs in the metric's direction.
func bestWorst(xs []float64, lowerBetter bool) (best, worst float64) {
	lo, hi := slices.Min(xs), slices.Max(xs)
	if lowerBetter {
		return lo, hi
	}
	return hi, lo
}

// compareMain implements "padcbench compare": for every workload and
// end-to-end metric it prints both sides' median and quartiles over runs,
// the paired win share, the verdict against the bound in BENCHMARK.json,
// and whether the simulated outputs (digests) are identical seed by seed.
// It exits 1 when any pair is worse or any digest differs.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePaths := fs.String("base", "", "comma-separated -json reports of the base (parent) side")
	newPaths := fs.String("new", "", "comma-separated -json reports of the new (change) side")
	config := fs.String("config", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePaths == "" || *newPaths == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "padcbench: usage: padcbench compare -base a.json[,b.json...] -new c.json[,d.json...] [-config BENCHMARK.json]")
		return 2
	}
	ok, err := compareFiles(out, *config, *basePaths, *newPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func compareFiles(out io.Writer, config, basePaths, newPaths string) (bool, error) {
	def, err := readBenchmarkFile(config)
	if err != nil {
		return false, err
	}
	base, err := readReports(basePaths)
	if err != nil {
		return false, err
	}
	nw, err := readReports(newPaths)
	if err != nil {
		return false, err
	}
	return compareReports(out, def.EndToEnd, base, nw)
}

// compareReports prints the comparison and reports whether it passed: no
// metric worse and every digest equal.
func compareReports(out io.Writer, bounds []boundDef, base, nw []*result) (bool, error) {
	byWorkload := func(rs []*result) (order []string, m map[string][]*result) {
		m = map[string][]*result{}
		for _, r := range rs {
			if m[r.Workload] == nil {
				order = append(order, r.Workload)
			}
			m[r.Workload] = append(m[r.Workload], r)
		}
		return order, m
	}
	order, baseBy := byWorkload(base)
	_, newBy := byWorkload(nw)

	pass := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tmedian change\tnew wins\tbound\tverdict")
	for _, w := range order {
		bs, ns := baseBy[w], newBy[w]
		if len(ns) == 0 {
			fmt.Fprintf(tw, "%s\t(no new runs)\n", w)
			pass = false
			continue
		}
		for _, b := range bounds {
			bv, bok := values(bs, b.Name)
			nv, nok := values(ns, b.Name)
			if !bok || !nok {
				fmt.Fprintf(tw, "%s\t%s\t(missing)\n", w, b.Name)
				pass = false
				continue
			}
			v := judge(bv, nv, b.Better == "lower", b.Bound)
			pass = pass && v.outcome != "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%+.2f%%\t%d/%d\t%.0f%%\t%s\n",
				w, b.Name, v.base.median, v.base.q1, v.base.q3, v.base.n,
				v.new.median, v.new.q1, v.new.q3, v.new.n,
				100*ratio(v.new.median-v.base.median, math.Abs(v.base.median)), v.wins, v.pairs, 100*b.Bound, v.outcome)
		}
		same, seeds := sameDigests(bs, ns)
		pass = pass && same
		fmt.Fprintf(tw, "%s\tdigests\t%s over %d common seed(s)\n", w, map[bool]string{true: "equal", false: "DIFFER"}[same], seeds)
	}
	return pass, tw.Flush()
}

// values returns one metric's value from every run, in run order.
func values(rs []*result, name string) ([]float64, bool) {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out = append(out, m.Value)
	}
	return out, true
}

// sameDigests reports whether every run of either side carries the digest
// of every other run with its seed, and how many seeds both sides ran.
func sameDigests(base, nw []*result) (bool, int) {
	digests := map[uint64]string{}
	same := true
	for _, r := range append(slices.Clone(base), nw...) {
		if d, ok := digests[r.Seed]; (ok && d != r.Digest) || r.Digest == "" {
			same = false
		}
		digests[r.Seed] = r.Digest
	}
	seen := map[uint64]bool{}
	for _, r := range base {
		seen[r.Seed] = true
	}
	common := map[uint64]bool{}
	for _, r := range nw {
		if seen[r.Seed] {
			common[r.Seed] = true
		}
	}
	return same, len(common)
}

package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"padc/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured on the
// untraced ops; BENCHMARK.json lists the same names, units and bounds.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_kips", "kinst/s"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// layers are the code layers a profile sample can be charged to, in the
// order their self_pct metrics are reported.
var layers = []string{"sim", "cpu", "cache", "prefetch", "memctrl", "dram", "core", "topology", "trace", "telemetry", "runner", "sweepd", "runtime"}

// perLayer are the single-layer metrics of a traced run; BENCHMARK.json
// lists the same names and units. Each is measured on every workload.
var perLayer = append([]metricDef{
	{"sim.skip_ratio", "ratio"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.new_ms", "ms"},
	{"sim.new_allocs", "count"},
	{"sim.cycles", "count"},
	{"cpu.tick_ns", "ns"},
	{"cpu.stall_frac", "ratio"},
	{"cache.access_ns", "ns"},
	{"cache.mshr_ns", "ns"},
	{"cache.l2_mpki", "1/kinst"},
	{"prefetch.observe_ns", "ns"},
	{"prefetch.accuracy", "ratio"},
	{"prefetch.sent_pki", "1/kinst"},
	{"prefetch.dropped_frac", "ratio"},
	{"memctrl.tick_ns", "ns"},
	{"memctrl.row_hit_rate", "ratio"},
	{"memctrl.rejects_pki", "1/kinst"},
	{"memctrl.memside_issued_pki", "1/kinst"},
	{"dram.refresh_blocked_frac", "ratio"},
	{"trace.at_ns", "ns"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_per_op", "count"},
	{"runner.expand_ms", "ms"},
}, append(selfPctDefs(), metricDef{"profile.samples", "count"}, metricDef{"profile.overhead_pct", "%"})...)

// campaignOnly are the sweepd phases of a campaign op. Simulation
// workloads have no such phases, so these are printed for the campaign
// but kept out of BENCHMARK.json, whose metrics every workload reports.
var campaignOnly = []metricDef{
	{"runner.merge_export_ms", "ms"},
	{"sweepd.submit_ms", "ms"},
	{"sweepd.first_row_s", "s"},
	{"sweepd.drain_s", "s"},
	{"sweepd.fetch_ms", "ms"},
	{"sweepd.journal_kb", "KB"},
}

func selfPctDefs() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".self_pct", "%"}
	}
	return out
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, set := range [][]metricDef{endToEnd, perLayer, campaignOnly} {
		for _, d := range set {
			m[d.name] = d.unit
		}
	}
	return m
}()

// metric is one reported value with the samples it summarizes.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's outcome in one process, and one entry of the
// -json report.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Digest    string            `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records the median of samples as the named metric.
func (r *result) set(name string, samples ...float64) {
	unit, ok := units[name]
	if !ok {
		panic("padcbench: metric " + name + " is not declared")
	}
	m := metric{Value: median(samples), Unit: unit, N: len(samples)}
	if len(samples) > 1 {
		m.Samples = samples
	}
	r.Metrics[name] = m
}

// options are one benchmark invocation's settings, passed on to children.
type options struct {
	seed    uint64
	seconds float64 // measuring time per workload
	trace   bool    // also run the layer probes and the profiled ops
	scale   float64 // instruction-count factor: 1 is the benchmark, tests shrink it
	minOps  int     // timed ops to run even past the deadline
	workdir string  // where the campaign's service keeps its data
}

// record counts one op and reports whether it passed its checks: no
// error, and the same digest as the workload's first op.
func (r *result) record(op opResult, err error) bool {
	r.Attempted++
	if err == nil && r.Digest != "" && op.digest != r.Digest {
		err = fmt.Errorf("digest %s differs from the first op's %s", op.digest, r.Digest)
	}
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
		return false
	}
	if r.Digest == "" {
		r.Digest = op.digest
	}
	return true
}

// measure runs one op, adding its wall time and heap allocations.
func measure(op func() (opResult, error)) (opResult, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	r, err := op()
	r.wall = time.Since(t)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r, err
}

// runChild sets the workload up, writes "ready" to ready, and then runs
// one discarded warm-up op and timed ops until the measuring time is
// spent (never fewer than minOps). A traced run adds the layer probes
// and profiled ops. setupOnly stops after "ready".
func runChild(w *workloadDef, o options, setupOnly bool, ready io.Writer) (res *result, err error) {
	b, err := setupWorkload(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer func() { err = errors.Join(err, b.close()) }()
	if _, err := fmt.Fprintln(ready, "ready"); err != nil || setupOnly {
		return nil, err
	}

	res = &result{Workload: w.name, Seed: o.seed, Metrics: map[string]metric{}}
	res.record(measure(b.op))

	gc0 := readGC()
	start := time.Now()
	var ops []opResult
	for len(ops) < o.minOps || time.Since(start).Seconds()+medianWall(ops) <= o.seconds {
		if op, err := measure(b.op); res.record(op, err) {
			ops = append(ops, op)
		}
		if res.Failed > 0 && len(ops) == 0 && res.Attempted > o.minOps {
			break // nothing passes; more attempts would only burn time
		}
	}
	gc1 := readGC()
	setEndToEnd(res, ops)
	if !o.trace {
		return res, nil
	}

	res.set("runtime.gc_cpu_frac", ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU))
	res.set("runtime.gc_per_op", ratio(float64(gc1.cycles-gc0.cycles), float64(len(ops))))
	runs, err := b.simRuns(ops)
	if err != nil {
		return nil, fmt.Errorf("%s: direct simulation: %w", w.name, err)
	}
	if len(runs) > 0 {
		setSimLayer(res, b.machine(), runs)
	}
	if err := runProbes(res, w, o, b.machine()); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	traced, shares, samples := tracedOps(res, b)
	if len(traced) == 0 {
		return res, nil
	}
	for _, l := range layers {
		res.set(l+".self_pct", shares[l])
	}
	res.set("profile.samples", float64(samples))
	if untraced := res.Metrics["wall_s"].Value; untraced > 0 {
		res.set("profile.overhead_pct", 100*(medianWall(traced)/untraced-1))
	}
	return res, nil
}

// setEndToEnd records the end-to-end metrics this process can measure
// (setup time and peak RSS are the parent's) and the campaign phases.
func setEndToEnd(res *result, ops []opResult) {
	var wall, kips, jps, mb, allocs []float64
	for _, op := range ops {
		s := op.wall.Seconds()
		wall = append(wall, s)
		kips = append(kips, op.kinsts/s)
		jps = append(jps, float64(op.jobs)/s)
		mb = append(mb, float64(op.allocBytes)/1e6)
		allocs = append(allocs, float64(op.mallocs))
	}
	res.set("wall_s", wall...)
	res.set("sim_kips", kips...)
	res.set("jobs_per_s", jps...)
	res.set("alloc_mb", mb...)
	res.set("allocs_per_op", allocs...)
	if len(ops) == 0 || ops[0].submit == 0 {
		return
	}
	var merge, submit, first, drain, fetch, journal []float64
	for _, op := range ops {
		merge = append(merge, ms(op.mergeExport))
		submit = append(submit, ms(op.submit))
		first = append(first, op.firstRow.Seconds())
		drain = append(drain, op.drain.Seconds())
		fetch = append(fetch, ms(op.fetch))
		journal = append(journal, float64(op.journalBytes)/1e3)
	}
	res.set("runner.merge_export_ms", merge...)
	res.set("sweepd.submit_ms", submit...)
	res.set("sweepd.first_row_s", first...)
	res.set("sweepd.drain_s", drain...)
	res.set("sweepd.fetch_ms", fetch...)
	res.set("sweepd.journal_kb", journal...)
}

// setSimLayer records the per-layer metrics a simulation reports about
// itself: kernel skipping and host cost per simulated cycle, system
// construction, and the modelled components' counters from stats.Results.
// The counters are deterministic, so the first run stands for all.
func setSimLayer(res *result, cfg sim.Config, runs []opResult) {
	r := runs[0].res
	cycles := float64(r.Cycles)
	var perCycle, newMs, newAllocs []float64
	for _, op := range runs {
		perCycle = append(perCycle, float64(op.runDur.Nanoseconds())/cycles)
		if op.newDur > 0 {
			newMs = append(newMs, ms(op.newDur))
			newAllocs = append(newAllocs, float64(op.newMallocs))
		}
	}
	res.set("sim.skip_ratio", float64(runs[0].skipped)/cycles)
	res.set("sim.host_ns_per_cycle", perCycle...)
	res.set("sim.new_ms", newMs...)
	res.set("sim.new_allocs", newAllocs...)
	res.set("sim.cycles", cycles)

	var coreCycles, stall, retired, misses, sent, used, dropped float64
	for _, c := range r.PerCore {
		coreCycles += float64(c.Cycles)
		stall += float64(c.StallCycles)
		retired += float64(c.Retired)
		misses += float64(c.L2Misses)
		sent += float64(c.PrefSent)
		used += float64(c.PrefUsed)
		dropped += float64(c.PrefDropped)
	}
	pki := func(n float64) float64 { return 1000 * ratio(n, retired) }
	res.set("cpu.stall_frac", ratio(stall, coreCycles))
	res.set("cache.l2_mpki", pki(misses))
	res.set("prefetch.accuracy", ratio(used, sent))
	res.set("prefetch.sent_pki", pki(sent))
	res.set("prefetch.dropped_frac", ratio(dropped, sent))
	res.set("memctrl.row_hit_rate", r.RBH())
	res.set("memctrl.rejects_pki", pki(float64(r.BufferRejects)))
	memside := 0.0
	if r.MemSide != nil {
		memside = float64(r.MemSide.Issued)
	}
	res.set("memctrl.memside_issued_pki", pki(memside))
	channels := cfg.DRAM.Channels
	if cfg.Topology != nil {
		channels = cfg.Topology.TotalChannels()
	}
	res.set("dram.refresh_blocked_frac", ratio(float64(r.Refresh.BlockedCycles), cycles*float64(channels*cfg.DRAM.Banks)))
}

// gcStats is the runtime's cumulative GC accounting.
type gcStats struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func medianWall(ops []opResult) float64 {
	w := make([]float64, len(ops))
	for i, op := range ops {
		w[i] = op.wall.Seconds()
	}
	return median(w)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads read the same here and in any script that checks them.
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

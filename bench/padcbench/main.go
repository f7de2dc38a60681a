// Command padcbench is the repository's host-performance benchmark. It
// runs closed-loop workloads against the simulator and the sweep service,
// each in its own child process, checks every op's output, and reports
// end-to-end metrics (untraced) and per-layer metrics (with -trace 1).
// bench/README.md describes the workloads and metrics; BENCHMARK.json at
// the repository root fixes their names, units and regression bounds.
//
// Run from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE]
//	bash bench/run.sh compare -base a.json[,b.json...] -new c.json[,d.json...]
//
// Every metric is printed as "workload metric value unit n=samples"; the
// last line of standard output is one JSON object with the run's outcome.
// The exit status is non-zero if any op failed its check.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times each workload is set up in a fresh process
// to measure setup_s: once by the measuring child and the rest by
// children that exit as soon as they are ready.
const setupRuns = 11

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("padcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, one after another)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "time to spend on timed ops per workload")
	trace := fs.Int("trace", 0, "1 adds the layer probes and profiled ops, and reports per-layer metrics")
	jsonOut := fs.String("json", "", "also write every metric with its samples to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "padcbench: usage: padcbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE]")
		return 2
	}
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := lookupWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, minOps: 3,
		workdir: filepath.Join(".bench_build", "work")}
	results, err := runAll(exe, names, o, setupRuns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, results); err != nil {
			fmt.Fprintln(os.Stderr, "padcbench:", err)
			return 1
		}
	}
	failed, err := printSummary(os.Stdout, results, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runAll measures each named workload in turn and prints its metrics.
func runAll(exe string, names []string, o options, setups int, out io.Writer) ([]*result, error) {
	var results []*result
	for _, name := range names {
		res, err := runWorkload(exe, name, o, setups)
		if err != nil {
			return nil, err
		}
		printMetrics(out, res)
		results = append(results, res)
	}
	return results, nil
}

// runWorkload sets the workload up setups times in fresh child processes,
// the last of which also runs the ops, and adds the parent-side metrics.
func runWorkload(exe, name string, o options, setups int) (*result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 1; i < setups; i++ {
		s, _, _, err := spawn(exe, w, o, true)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	s, res, rssKB, err := spawn(exe, w, o, false)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", append(setupS, s)...)
	res.set("peak_rss_mb", float64(rssKB)*1024/1e6)
	return res, nil
}

// spawn runs one child for the workload and returns the seconds from
// process start to its "ready" line, its result (unless setupOnly) and
// its peak resident set in KiB.
func spawn(exe string, w *workloadDef, o options, setupOnly bool) (setup float64, res *result, rssKB int64, err error) {
	args := []string{"child", "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-min-ops", strconv.Itoa(o.minOps),
		"-workdir", o.workdir,
		"-trace=" + strconv.FormatBool(o.trace),
		"-setup-only=" + strconv.FormatBool(setupOnly)}
	cmd := exec.Command(exe, args...)
	// GOMAXPROCS is fixed per workload, so hosts with different core
	// counts measure the same thing.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	setup = time.Since(start).Seconds()
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("unexpected line %q", line)
	}
	if err == nil && !setupOnly {
		err = json.NewDecoder(br).Decode(&res)
	}
	if err != nil {
		_ = cmd.Process.Kill()
	}
	_, _ = io.Copy(io.Discard, br)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", w.name, err)
	}
	return setup, res, maxRSS(cmd.ProcessState), nil
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "")
	fs.Float64Var(&o.seconds, "seconds", 0, "")
	fs.Float64Var(&o.scale, "scale", 1, "")
	fs.IntVar(&o.minOps, "min-ops", 1, "")
	fs.StringVar(&o.workdir, "workdir", "", "")
	fs.BoolVar(&o.trace, "trace", false, "")
	setupOnly := fs.Bool("setup-only", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil {
		var res *result
		if res, err = runChild(w, o, *setupOnly, os.Stdout); err == nil && res != nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "padcbench:", err)
		return 1
	}
	return 0
}

// printMetrics writes one line per metric: end-to-end, then per-layer,
// then campaign phases, each in declaration order.
func printMetrics(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s digest %s\n", res.Workload, res.Digest)
	for _, set := range [][]metricDef{endToEnd, perLayer, campaignOnly} {
		for _, d := range set {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, d.name, m.Value, m.Unit, m.N)
			}
		}
	}
	fmt.Fprintf(w, "%s ops attempted %d failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", res.Workload, f)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary writes the one-line JSON outcome: the end-to-end metrics,
// or with trace the per-layer ones (a failed op can leave some
// unmeasured). Several workloads prefix each metric name with
// "workload/". It returns the failed-op count.
func printSummary(w io.Writer, results []*result, trace bool) (int, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := summary{Metrics: map[string]valueUnit{}}
	for _, res := range results {
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = res.Workload + "/" + d.name
			}
			s.Metrics[key] = valueUnit{m.Value, m.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	data, err := json.Marshal(s)
	if err != nil {
		return 0, err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return s.Failed, err
}

// report is the -json file: every workload's metrics with their samples.
type report struct {
	Results []*result `json:"results"`
}

func writeReport(path string, results []*result) error {
	data, err := json.MarshalIndent(report{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReports(paths string) ([]*result, error) {
	var out []*result
	for _, p := range strings.Split(paths, ",") {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(r.Results) == 0 {
			return nil, errors.New(p + ": no results")
		}
		out = append(out, r.Results...)
	}
	return out, nil
}

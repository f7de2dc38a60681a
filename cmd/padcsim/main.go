// Command padcsim runs the PADC reproduction: individual simulations or
// whole paper experiments.
//
// Usage:
//
//	padcsim -list                             # benchmarks and experiment ids
//	padcsim -exp fig16 [-full]                # regenerate a paper figure/table
//	padcsim -bench swim,art -policy padc      # simulate a workload mix
//	padcsim -exp all [-full]                  # everything (slow with -full)
//
// Telemetry (with -bench): -epoch sets the sampling period, -metrics
// writes the epoch time series as CSV, -trace writes a Chrome
// trace_event JSON (chrome://tracing, Perfetto), -events writes the raw
// event ring as JSONL, and -heatmap writes the bank-state flight
// recorder's per-epoch × per-bank table (CSV, or JSONL when the path
// ends in .jsonl). With both -heatmap and -trace, per-bank counter
// tracks are folded into the Chrome trace.
//
//	padcsim -bench swim,art -policy padc -metrics out.csv -trace out.json -epoch 10000
//	padcsim -bench swim,art -policy padc -heatmap banks.csv
//
// Profiling (with -bench): -profile prints the per-core cycle-accounting
// table (every cycle attributed to retire / demand-miss / mshr-full /
// compute / idle) and the request-lifecycle breakdown, -spans writes the
// sampled lifecycle spans as JSONL, -breakdown writes the per-core
// latency decomposition as CSV, and -http serves Prometheus-format
// metrics at /metrics (plus net/http/pprof) while the simulation runs.
//
//	padcsim -bench swim,art -profile -http :8080 -spans spans.jsonl
//
// Sweeps: -sweep runs a declarative JSON sweep spec (a cartesian grid of
// policy/prefetcher/threshold/workload axes, see EXPERIMENTS.md) on a
// bounded worker pool, -jobs sizes the pool (default GOMAXPROCS; it also
// governs the -exp runners), -verify runs the accounting-invariant checks
// on every job, and -sweep-csv/-sweep-json write the merged artifacts,
// which are byte-identical for any -jobs value.
//
//	padcsim -sweep spec.json -jobs 8 -verify -sweep-csv out.csv
//
// With -sweep-remote the same spec runs on a padcsweepd server instead
// of in-process: the spec is submitted as a campaign, rows stream back
// live, and the artifacts are downloaded verbatim — byte-identical to
// the in-process run:
//
//	padcsim -sweep spec.json -sweep-remote http://127.0.0.1:8080 -sweep-csv out.csv
//
// DRAM management (with -bench): -refresh enables the maintenance engine
// (per-bank REFpb or all-bank REF with the JEDEC postpone/pull-in credit
// window), -page selects the row-buffer policy (open, closed, or the
// adaptive per-bank predictor). -dump-config prints the fully-resolved
// machine — geometry, timing, rule stack, refresh and page policy — as
// JSON and exits without simulating:
//
//	padcsim -bench swim,art -refresh per-bank -page adaptive
//	padcsim -policy padc -refresh all-bank -dump-config
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"

	"padc"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/exp"
	"padc/internal/sim"
	"padc/internal/sweepd"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
)

func main() {
	var (
		// -list and -dump-config are read through chosenMode only.
		_       = flag.Bool("list", false, "list benchmarks and experiment ids")
		expID   = flag.String("exp", "", "experiment id (fig1, fig16, tab8, ...) or 'all'")
		full    = flag.Bool("full", false, "paper-scale workload counts (slow)")
		bench   = flag.String("bench", "", "comma-separated benchmark names, one per core")
		policy  = flag.String("policy", "padc", "scheduling policy: "+strings.Join(sim.PolicyNames(), "|")+", or rules:<list> (e.g. rules:critical,rowhit,urgent,fcfs)")
		pf      = flag.String("prefetcher", "stream", strings.Join(sim.PrefetcherNames(), "|"))
		memside = flag.Bool("memside", false, "enable the DRAM-side prefetch path (controller-generated row-hit prefetches, PADC-gated)")
		insts   = flag.Uint64("insts", 0, "instructions per core (0 = default)")
		cores   = flag.Int("cores", 0, "cores to provision (0 = number of benchmarks)")
		verbose = flag.Bool("v", false, "per-core details")

		refreshMode = flag.String("refresh", "off", "DRAM refresh mode: "+strings.Join(refresh.ModeNames(), "|"))
		pagePolicy  = flag.String("page", "open", "row-buffer management: "+strings.Join(dram.PagePolicyNames(), "|"))
		topoSpec    = flag.String("topology", "", "memory topology: a preset name ("+strings.Join(padc.TopologyNames(), "|")+"), a JSON topology file, or inline JSON")
		_           = flag.Bool("dump-config", false, "print the resolved machine configuration as JSON and exit")

		metricsOut = flag.String("metrics", "", "write the epoch metric time series as CSV to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON to this file")
		eventsOut  = flag.String("events", "", "write the raw event ring as JSONL to this file")
		heatmapOut = flag.String("heatmap", "", "write the flight recorder's per-epoch x per-bank heatmap to this file (CSV, or JSONL with a .jsonl extension)")
		epoch      = flag.Uint64("epoch", 10_000, "telemetry sampling period in cycles")

		profile      = flag.Bool("profile", false, "print per-core cycle attribution and lifecycle breakdown tables")
		spansOut     = flag.String("spans", "", "write sampled request-lifecycle spans as JSONL to this file")
		breakdownOut = flag.String("breakdown", "", "write the per-core latency decomposition as CSV to this file")
		httpAddr     = flag.String("http", "", "serve Prometheus metrics at /metrics and net/http/pprof on this address (e.g. :8080)")

		sweepSpec   = flag.String("sweep", "", "run the JSON sweep spec in this file on the worker pool")
		sweepRemote = flag.String("sweep-remote", "", "with -sweep: run the spec on this padcsweepd server instead of in-process")
		jobs        = flag.Int("jobs", 0, "worker-pool size for -sweep and -exp (0 = GOMAXPROCS)")
		verify      = flag.Bool("verify", false, "with -sweep: check accounting invariants on every job")
		sweepCSV    = flag.String("sweep-csv", "", "with -sweep: write the merged jobs as CSV to this file")
		sweepJSON   = flag.String("sweep-json", "", "with -sweep: write the merged sweep as JSON to this file")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode := chosenMode()
	if mode == "" {
		flag.Usage()
		os.Exit(2)
	}
	if name := unreadFlag(mode, set); name != "" {
		fmt.Fprintf(os.Stderr, "padcsim: -%s has no effect with -%s\n", name, mode)
		os.Exit(2)
	}
	if *jobs > 0 {
		padc.SetJobs(*jobs)
	}

	switch mode {
	case "list":
		fmt.Println("benchmarks:")
		for _, b := range padc.Benchmarks() {
			fmt.Printf("  %s\n", b)
		}
		fmt.Println("experiments:")
		for _, id := range padc.ExperimentIDs() {
			fmt.Printf("  %s\n", id)
		}
	case "dump-config":
		cfg, names, err := buildConfig(*bench, *policy, *pf, *refreshMode, *pagePolicy, *topoSpec, *memside, *insts, *cores)
		if err != nil {
			fatal(err)
		}
		if err := writeResolvedConfig(os.Stdout, cfg, names); err != nil {
			fatal(err)
		}
	case "sweep":
		if *sweepRemote != "" {
			if err := runSweepRemote(*sweepRemote, *sweepSpec, *jobs, *verify, *sweepCSV, *sweepJSON); err != nil {
				fatal(err)
			}
		} else if err := runSweep(*sweepSpec, *verify, *sweepCSV, *sweepJSON); err != nil {
			fatal(err)
		}
	case "exp":
		ids := []string{*expID}
		if *expID == "all" {
			ids = padc.ExperimentIDs()
		}
		for _, id := range ids {
			out, err := padc.Experiment(id, *full)
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
		}
	case "bench":
		cfg, names, err := buildConfig(*bench, *policy, *pf, *refreshMode, *pagePolicy, *topoSpec, *memside, *insts, *cores)
		if err != nil {
			fatal(err)
		}
		var tel *telemetry.Telemetry
		if *metricsOut != "" || *traceOut != "" || *eventsOut != "" || *httpAddr != "" {
			tel = padc.NewTelemetry(*epoch)
			cfg.Telemetry = tel
		}
		var tracer *lifecycle.Tracer
		if *profile || *spansOut != "" || *breakdownOut != "" {
			tracer = padc.NewLifecycle()
			cfg.Lifecycle = tracer
		}
		var rec *flight.Recorder
		if *heatmapOut != "" {
			rec = padc.NewFlightRecorder(*epoch)
			cfg.Flight = rec
		}
		cfg.Profile = *profile
		if *httpAddr != "" {
			serveHTTP(*httpAddr, tel)
		}
		res, err := padc.Run(cfg, names)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, res, *verbose)
		if rec != nil {
			if err := exportHeatmap(rec, *heatmapOut); err != nil {
				fatal(err)
			}
		}
		if tel != nil {
			if err := exportTelemetry(tel, tracer, rec, *metricsOut, *traceOut, *eventsOut); err != nil {
				fatal(err)
			}
			fmt.Print(exp.TelemetryTable(tel))
		}
		if tracer != nil {
			if err := exportLifecycle(tracer, *spansOut, *breakdownOut); err != nil {
				fatal(err)
			}
		}
		if *profile {
			fmt.Print(exp.ProfileTable(res))
			fmt.Print(tracer.BreakdownTable())
		}
	}
}

// machineFlags are the flags that describe the simulated machine.
var machineFlags = []string{"bench", "policy", "prefetcher", "memside", "insts", "cores", "refresh", "page", "topology"}

// modes lists padcsim's modes in precedence order, each with the flags it
// reads besides its own. A flag the chosen mode does not read is a usage
// error rather than silently ignored.
var modes = []struct {
	flag  string
	reads []string
}{
	{"list", nil},
	{"dump-config", machineFlags},
	{"sweep", []string{"sweep-remote", "jobs", "verify", "sweep-csv", "sweep-json"}},
	{"exp", []string{"full", "jobs"}},
	{"bench", append([]string{"v", "metrics", "trace", "events", "heatmap", "epoch",
		"profile", "spans", "breakdown", "http"}, machineFlags...)},
}

// chosenMode returns the first mode whose flag is on (true or non-empty),
// or "" when none is.
func chosenMode() string {
	for _, m := range modes {
		if v := flag.Lookup(m.flag).Value.String(); v != "" && v != "false" {
			return m.flag
		}
	}
	return ""
}

// unreadFlag returns the first of the set flags that mode does not read,
// or "" when it reads them all.
func unreadFlag(mode string, set []string) string {
	for _, m := range modes {
		if m.flag != mode {
			continue
		}
		for _, name := range set {
			if name != mode && !slices.Contains(m.reads, name) {
				return name
			}
		}
	}
	return ""
}

// runSweep executes the JSON sweep spec at path on the worker pool,
// prints the merged table plus wall-clock stats, and writes the optional
// CSV/JSON artifacts. A progress line tracks completion on stderr.
func runSweep(path string, verify bool, csvOut, jsonOut string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := padc.ParseSweepSpec(data)
	if err != nil {
		return err
	}
	opts := padc.SweepOptions{
		Verify: verify,
		Progress: func(done, total int, _ padc.SweepJob) {
			fmt.Fprintf(os.Stderr, "\rpadcsim: sweep %d/%d jobs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}
	res, err := padc.Sweep(spec, opts)
	if err != nil {
		return err
	}
	fmt.Print(padc.RenderSweep(res))
	fmt.Printf("%s\n", res.Stats)
	if err := writeFile(csvOut, func(f *os.File) error { return res.WriteCSV(f) }); err != nil {
		return err
	}
	if err := writeFile(jsonOut, func(f *os.File) error { return res.WriteJSON(f) }); err != nil {
		return err
	}
	if n := res.Failed(); n > 0 {
		return fmt.Errorf("%d of %d sweep jobs failed (see the status column)", n, len(res.Jobs))
	}
	return nil
}

// runSweepRemote runs the sweep spec on a padcsweepd server: submit the
// spec as a campaign, stream the rows back live for the progress line
// and the rendered table, and download the merged artifacts verbatim —
// the on-disk bytes are exactly what the server merged, which the
// service guarantees is byte-identical to the in-process run.
func runSweepRemote(server, path string, jobs int, verify bool, csvOut, jsonOut string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := padc.ParseSweepSpec(data)
	if err != nil {
		return err
	}
	cl, err := sweepd.NewClient(server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	info, err := cl.Submit(ctx, sweepd.SubmitRequest{Spec: data, Workers: jobs, Verify: verify})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "padcsim: campaign %s on %s (%d jobs)\n", info.ID, server, info.Total)

	var rows []padc.SweepJob
	err = cl.StreamRows(ctx, info.ID, 0, func(ev sweepd.RowEvent) error {
		if ev.Row != nil {
			rows = append(rows, *ev.Row)
			fmt.Fprintf(os.Stderr, "\rpadcsim: sweep %d/%d jobs", len(rows), info.Total)
			if len(rows) == info.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	final, err := cl.Wait(ctx, info.ID, 0, nil)
	if err != nil {
		return err
	}
	if final.State != "completed" {
		return fmt.Errorf("campaign %s %s: %s", final.ID, final.State, final.Error)
	}

	res := padc.MergeSweepRows(spec, rows)
	fmt.Print(padc.RenderSweep(res))
	for format, out := range map[string]string{"csv": csvOut, "json": jsonOut} {
		if out == "" {
			continue
		}
		artifact, err := cl.Artifact(ctx, final.ID, format)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, artifact, 0o644); err != nil {
			return err
		}
	}
	if n := res.Failed(); n > 0 {
		return fmt.Errorf("%d of %d sweep jobs failed (see the status column)", n, len(res.Jobs))
	}
	return nil
}

// buildConfig assembles the machine the simulation flags describe and
// returns it with the benchmark list. With no -bench and no -cores it
// provisions a single core, which is enough for -dump-config. Names are
// checked when the config is lowered (Describe or Run).
func buildConfig(bench, policy, pf, refreshMode, page, topo string, memside bool, insts uint64, cores int) (padc.SystemConfig, []string, error) {
	var names []string
	if bench != "" {
		names = strings.Split(bench, ",")
	}
	n := cores
	if n == 0 {
		n = len(names)
	}
	if n == 0 {
		n = 1
	}
	cfg := padc.DefaultSystem(n)
	if insts > 0 {
		cfg.TargetInsts = insts
	}
	cfg.Policy = policy
	cfg.Prefetcher = pf
	cfg.RefreshMode = refreshMode
	cfg.PagePolicy = page
	topo, err := resolveTopologyFlag(topo)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Topology = topo
	cfg.MemSide = memside
	return cfg, names, nil
}

// resolveTopologyFlag interprets -topology: inline JSON (starts with "{")
// and preset names pass through to the config; anything naming a readable
// file — or ending in .json — is read and its contents used as the inline
// spec.
func resolveTopologyFlag(s string) (string, error) {
	t := strings.TrimSpace(s)
	if t == "" || strings.HasPrefix(t, "{") {
		return t, nil
	}
	if _, err := os.Stat(t); err == nil || strings.HasSuffix(t, ".json") {
		data, err := os.ReadFile(t)
		if err != nil {
			return "", fmt.Errorf("reading -topology file: %w", err)
		}
		return string(data), nil
	}
	return t, nil
}

// writeResolvedConfig prints the -dump-config JSON: the fully-resolved
// machine plus the workload list the other flags selected.
func writeResolvedConfig(w io.Writer, cfg padc.SystemConfig, workloads []string) error {
	rc, err := cfg.Describe()
	if err != nil {
		return err
	}
	out := struct {
		padc.ResolvedConfig
		Workloads []string `json:"workloads,omitempty"`
	}{rc, workloads}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func report(w io.Writer, res padc.Result, verbose bool) {
	fmt.Fprintf(w, "cycles: %d\n", res.Cycles)
	fmt.Fprintf(w, "bus traffic (lines): demand=%d useful-pref=%d useless-pref=%d total=%d\n",
		res.Bus.Demand, res.Bus.UsefulPref, res.Bus.UselessPref, res.Bus.Total())
	fmt.Fprintf(w, "row-hit rate: %.1f%%  RBHU: %.1f%%  dropped prefetches: %d\n",
		res.RBH()*100, res.RBHU()*100, res.Dropped)
	if r := res.Refresh; r.Ran() {
		fmt.Fprintf(w, "refreshes: issued=%d postponed=%d pulled-in=%d forced=%d blocked-cycles=%d\n",
			r.Issued, r.Postponed, r.PulledIn, r.Forced, r.BlockedCycles)
	}
	for _, d := range res.Domains {
		fmt.Fprintf(w, "domain %-8s ch=%d link=%d serviced=%d row-hit=%.1f%% bus-busy=%d pref-acc=%.1f%%\n",
			d.Name, d.Channels, d.LinkCycles, d.Serviced, d.RBH()*100, d.BusBusyCycles, d.ACC()*100)
	}
	if ms := res.MemSide; ms != nil {
		fmt.Fprintf(w, "memside: generated=%d issued=%d serviced=%d used=%d acc=%.1f%% dropped(pressure/stale/apd)=%d/%d/%d gate-closed=%d\n",
			ms.Generated, ms.Issued, ms.Serviced, ms.Used, ms.ACC()*100,
			ms.DroppedPressure, ms.DroppedStale, ms.Dropped, ms.GateClosed)
	}
	if ds := res.DSPatch; ds != nil {
		fmt.Fprintf(w, "dspatch: issued=%d covp-triggers=%d accp-triggers=%d cov-acc=%.1f%% acc-acc=%.1f%% headroom=%.2f\n",
			ds.Issued, ds.CovPSelected, ds.AccPSelected, ds.CovAccuracy*100, ds.AccAccuracy*100, ds.Headroom)
	}
	for _, c := range res.PerCore {
		fmt.Fprintf(w, "  %-12s IPC=%.3f MPKI=%.2f SPL=%.1f", c.Benchmark, c.IPC(), c.MPKI(), c.SPL())
		if verbose {
			fmt.Fprintf(w, " ACC=%.1f%% COV=%.1f%% sent=%d dropped=%d",
				c.ACC()*100, c.COV()*100, c.PrefSent, c.PrefDropped)
		}
		fmt.Fprintln(w)
	}
}

// exportTelemetry writes the requested telemetry artifacts. When a
// lifecycle tracer or a flight recorder is active, its spans / per-bank
// counter tracks are interleaved into the Chrome trace alongside the
// event-ring slices.
func exportTelemetry(tel *telemetry.Telemetry, tracer *lifecycle.Tracer, rec *flight.Recorder, metrics, trace, events string) error {
	if err := writeFile(metrics, func(f *os.File) error { return tel.WriteCSV(f) }); err != nil {
		return err
	}
	if err := writeFile(trace, func(f *os.File) error {
		return tel.WriteChromeTraceWith(f, func(emit func(format string, args ...any)) {
			tracer.ChromeSlices(emit)
			rec.ChromeCounters(emit)
		})
	}); err != nil {
		return err
	}
	return writeFile(events, func(f *os.File) error { return tel.WriteJSONL(f) })
}

// exportHeatmap writes the flight recorder's epoch × bank table, picking
// the format from the extension: .jsonl streams one epoch object per
// line, anything else is the long-form CSV.
func exportHeatmap(rec *flight.Recorder, path string) error {
	return writeFile(path, func(f *os.File) error {
		if strings.HasSuffix(path, ".jsonl") {
			return rec.WriteJSONL(f)
		}
		return rec.WriteCSV(f)
	})
}

// exportLifecycle writes the requested lifecycle artifacts.
func exportLifecycle(tracer *lifecycle.Tracer, spans, breakdown string) error {
	if err := writeFile(spans, func(f *os.File) error { return tracer.WriteJSONL(f) }); err != nil {
		return err
	}
	return writeFile(breakdown, func(f *os.File) error { return tracer.WriteCSV(f) })
}

func writeFile(path string, fn func(f *os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveHTTP starts the live observability endpoint: Prometheus-format
// metrics at /metrics plus the net/http/pprof handlers the blank import
// registers on the default mux. The server runs for the life of the
// process; a bind failure is fatal so a typo'd address doesn't silently
// drop the endpoint the user asked for.
func serveHTTP(addr string, tel *telemetry.Telemetry) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		tel.WritePrometheus(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	go http.Serve(ln, nil)
	fmt.Fprintf(os.Stderr, "padcsim: serving /metrics and /debug/pprof on %s\n", ln.Addr())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padcsim:", err)
	os.Exit(1)
}

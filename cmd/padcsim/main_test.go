package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"padc"
	"padc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// describeFlags resolves the machine -dump-config prints for the given
// -policy and -prefetcher values, all other flags at their defaults.
func describeFlags(policy, pf string) (padc.ResolvedConfig, error) {
	cfg, _, err := buildConfig("", policy, pf, "off", "open", "", false, 0, 0)
	if err != nil {
		return padc.ResolvedConfig{}, err
	}
	return cfg.Describe()
}

func TestApplyPolicyRejectsUnknown(t *testing.T) {
	_, err := describeFlags("frfcfs-typo", "stream")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "frfcfs-typo") {
		t.Fatalf("error should name the bad value: %v", err)
	}
}

func TestApplyPolicyKnownValues(t *testing.T) {
	for _, s := range append(sim.PolicyNames(), "rules:critical,rowhit,urgent,fcfs") {
		if _, err := describeFlags(s, "stream"); err != nil {
			t.Errorf("policy %q rejected: %v", s, err)
		}
	}
	// The padc spelling must enable dropping; the rigid ones must not.
	if rc, _ := describeFlags("padc", "stream"); !rc.APD {
		t.Error("padc policy should enable APD")
	}
	if rc, _ := describeFlags("demand-first", "stream"); rc.APD {
		t.Error("demand-first policy should disable APD")
	}
}

// TestNoPrefPolicyDisablesPrefetching pins -policy no-pref to the sweep's
// meaning: no prefetcher, demand-first, APD off, whatever -prefetcher
// says (its default is stream).
func TestNoPrefPolicyDisablesPrefetching(t *testing.T) {
	rc, err := describeFlags("no-pref", "stream")
	if err != nil {
		t.Fatal(err)
	}
	demandFirst, _ := describeFlags("demand-first", "stream")
	if rc.Prefetcher != "none" || rc.APD || rc.RuleStack != demandFirst.RuleStack {
		t.Fatalf("no-pref resolved to prefetcher=%q apd=%v stack=%q; want none, false, %q",
			rc.Prefetcher, rc.APD, rc.RuleStack, demandFirst.RuleStack)
	}
	cfg, names, err := buildConfig("swim,art", "no-pref", "stream", "off", "open", "", false, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := padc.Run(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bus.UsefulPref != 0 || res.Bus.UselessPref != 0 {
		t.Fatalf("no-pref moved prefetch traffic: useful=%d useless=%d", res.Bus.UsefulPref, res.Bus.UselessPref)
	}
}

func TestApplyPrefetcherRejectsUnknown(t *testing.T) {
	_, err := describeFlags("padc", "ghb")
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if !strings.Contains(err.Error(), "ghb") {
		t.Fatalf("error should name the bad value: %v", err)
	}
	for _, valid := range sim.PrefetcherNames() {
		if !strings.Contains(err.Error(), valid) {
			t.Fatalf("error should list valid name %q: %v", valid, err)
		}
	}
}

func TestApplyPrefetcherKnownValues(t *testing.T) {
	for _, s := range sim.PrefetcherNames() {
		rc, err := describeFlags("padc", s)
		if err != nil {
			t.Errorf("prefetcher %q rejected: %v", s, err)
		} else if rc.Prefetcher != s {
			t.Errorf("prefetcher %q resolved to %q", s, rc.Prefetcher)
		}
	}
}

// TestDumpConfigGolden pins the -dump-config bytes for every -policy ×
// -prefetcher name (regenerate with go test ./cmd/padcsim -run
// DumpConfigGolden -update).
func TestDumpConfigGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, pol := range append(sim.PolicyNames(), "rules:critical,rowhit,urgent,fcfs") {
		for _, pf := range sim.PrefetcherNames() {
			cfg, names, err := buildConfig("", pol, pf, "off", "open", "", false, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "== -policy %s -prefetcher %s ==\n", pol, pf)
			if err := writeResolvedConfig(&buf, cfg, names); err != nil {
				t.Fatalf("-policy %s -prefetcher %s: %v", pol, pf, err)
			}
		}
	}
	path := filepath.Join("testdata", "dump_config.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-dump-config output differs from %s (rerun with -update if intended)", path)
	}
}

func TestBuildConfigAppliesRefreshAndPage(t *testing.T) {
	cfg, names, err := buildConfig("swim,art", "padc", "stream", "per-bank", "adaptive", "far-tier", true, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "swim" || names[1] != "art" {
		t.Fatalf("benchmarks = %v", names)
	}
	if cfg.Cores != 2 {
		t.Fatalf("cores = %d, want 2 (one per benchmark)", cfg.Cores)
	}
	if cfg.RefreshMode != "per-bank" || cfg.PagePolicy != "adaptive" {
		t.Fatalf("refresh/page = %q/%q", cfg.RefreshMode, cfg.PagePolicy)
	}
	if cfg.TargetInsts != 5000 {
		t.Fatalf("insts = %d", cfg.TargetInsts)
	}
	if cfg.Topology != "far-tier" {
		t.Fatalf("topology = %q, want far-tier", cfg.Topology)
	}
	if !cfg.MemSide {
		t.Fatal("memside flag not threaded into the config")
	}

	// No benchmarks and no -cores still yields a describable machine.
	cfg, names, err = buildConfig("", "padc", "stream", "off", "open", "", false, 0, 0)
	if err != nil || len(names) != 0 || cfg.Cores != 1 {
		t.Fatalf("flagless config: cores=%d names=%v err=%v", cfg.Cores, names, err)
	}
	if cfg.MemSide {
		t.Fatal("memside must default off")
	}
}

func TestResolveTopologyFlag(t *testing.T) {
	// Preset names and inline JSON pass straight through.
	for _, in := range []string{"", "flat", "far-tier", `{"name":"x"}`} {
		got, err := resolveTopologyFlag(in)
		if err != nil || got != strings.TrimSpace(in) {
			t.Errorf("resolveTopologyFlag(%q) = %q, %v", in, got, err)
		}
	}

	// A path to a JSON file is read and its contents become the spec.
	spec := `{"name":"duo","interleave":"channel","domains":[{"name":"a","channels":1},{"name":"b","channels":1,"link_cycles":99}]}`
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolveTopologyFlag(path)
	if err != nil || got != spec {
		t.Fatalf("file topology not read: %q, %v", got, err)
	}

	// A .json path that doesn't exist is an error, not a preset name.
	if _, err := resolveTopologyFlag(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing .json file accepted")
	}

	// The file contents must actually build a machine end to end.
	cfg, _, err := buildConfig("swim", "padc", "stream", "off", "open", path, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cfg.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Topology.Name != "duo" || len(rc.Topology.Domains) != 2 ||
		rc.Topology.Domains[1].LinkCycles != 99 {
		t.Fatalf("resolved topology = %+v", rc.Topology)
	}
}

func TestWriteResolvedConfigJSON(t *testing.T) {
	cfg, names, err := buildConfig("swim", "padc", "stream", "all-bank", "closed", "", false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeResolvedConfig(&buf, cfg, names); err != nil {
		t.Fatal(err)
	}
	var got struct {
		padc.ResolvedConfig
		Workloads []string `json:"workloads"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.RuleStack == "" || !strings.Contains(got.RuleStack, "rules:") {
		t.Errorf("rule stack not resolved: %q", got.RuleStack)
	}
	if got.DRAM.Refresh.Mode != "all-bank" || got.DRAM.Refresh.TREFI != 31_200 ||
		got.DRAM.Refresh.TRFC != 640 || got.DRAM.Refresh.MaxPostpone != 8 {
		t.Errorf("refresh timing not resolved: %+v", got.DRAM.Refresh)
	}
	if got.DRAM.PagePolicy != "closed" {
		t.Errorf("page policy = %q, want closed", got.DRAM.PagePolicy)
	}
	if got.DRAM.Banks != 8 || got.DRAM.TRP != 60 || got.DRAM.Burst != 12 {
		t.Errorf("geometry/timing not resolved: %+v", got.DRAM)
	}
	if len(got.Workloads) != 1 || got.Workloads[0] != "swim" {
		t.Errorf("workloads = %v", got.Workloads)
	}
}

func TestWriteResolvedConfigRejectsBadModes(t *testing.T) {
	for _, tc := range [][2]string{{"hourly", "open"}, {"off", "ajar"}} {
		cfg, names, err := buildConfig("swim", "padc", "stream", tc[0], tc[1], "", false, 0, 0)
		if err != nil {
			t.Fatal(err) // buildConfig defers vocabulary checks to Describe/Run
		}
		if err := writeResolvedConfig(io.Discard, cfg, names); err == nil {
			t.Errorf("refresh=%q page=%q accepted", tc[0], tc[1])
		}
	}
}

// reportRun is one padcsim -bench invocation the report goldens pin.
type reportRun struct {
	args                                       string
	bench, policy, pf, refresh, page, topology string
	memside, verbose                           bool
}

// runReport simulates r at 20,000 instructions per core and returns what
// padcsim prints for it.
func runReport(t *testing.T, r reportRun) string {
	t.Helper()
	cfg, names, err := buildConfig(r.bench, r.policy, r.pf, r.refresh, r.page, r.topology, r.memside, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := padc.Run(cfg, names)
	if err != nil {
		t.Fatalf("%s: %v", r.args, err)
	}
	var buf bytes.Buffer
	report(&buf, res, r.verbose)
	return buf.String()
}

// TestReportGolden pins padcsim's run report: a flat two-core run, and one
// that prints every optional section — refreshes, two domains, the
// memory-side prefetch path and DSPatch (regenerate with go test
// ./cmd/padcsim -run ReportGolden -update).
func TestReportGolden(t *testing.T) {
	runs := []reportRun{
		{args: "-v -insts 20000 -bench swim,art",
			bench: "swim,art", policy: "padc", pf: "stream", refresh: "off", page: "open", verbose: true},
		{args: "-v -insts 20000 -bench swim,art -refresh per-bank -topology far-tier -memside -prefetcher dspatch",
			bench: "swim,art", policy: "padc", pf: "dspatch", refresh: "per-bank", page: "open", topology: "far-tier",
			memside: true, verbose: true},
	}
	var buf bytes.Buffer
	for _, r := range runs {
		fmt.Fprintf(&buf, "== padcsim %s ==\n%s", r.args, runReport(t, r))
	}
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report differs from %s (rerun with -update if intended):\n%s", path, buf.String())
	}
}

// TestReportShowsPostponedRefresh: a run whose refresh engine only
// postponed obligations still prints its refresh line, as the sweep row
// carries its refresh keys.
func TestReportShowsPostponedRefresh(t *testing.T) {
	out := runReport(t, reportRun{args: "-insts 20000 -bench swim,art -refresh all-bank",
		bench: "swim,art", policy: "padc", pf: "stream", refresh: "all-bank", page: "open"})
	if !strings.Contains(out, "refreshes: issued=0 postponed=2 ") {
		t.Fatalf("postponed-only refresh not reported:\n%s", out)
	}
}

// TestMain runs padcsim itself instead of the tests when PADCSIM_MAIN is
// set, so a test can drive the command line as a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("PADCSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestModeFlags runs padcsim with flag sets that mix modes: a flag the
// chosen mode does not read, or one that no longer exists, is a usage
// error (exit 2) that names it; a mode's own flags run.
func TestModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		unread string // "" means the command runs clean
	}{
		{[]string{"-exp", "fig2", "-metrics", "x.csv"}, "-metrics"},
		{[]string{"-sweep", "spec.json", "-policy", "aps"}, "-policy"},
		{[]string{"-exp", "fig2", "-bench", "swim"}, "-bench"},
		{[]string{"-list", "-jobs", "2"}, "-jobs"},
		{[]string{"-dump-config", "-v"}, "-v"},
		{[]string{"-bench", "swim", "-full"}, "-full"},
		{[]string{"-bench", "swim", "-sweep-csv", "out.csv"}, "-sweep-csv"},
		{[]string{"-bench", "mcf", "-kernel", "stepped"}, "-kernel"},
		{[]string{"-list"}, ""},
		{[]string{"-dump-config", "-policy", "aps", "-topology", "far-tier", "-bench", "swim"}, ""},
		{[]string{"-exp", "fig2", "-jobs", "1"}, ""},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "PADCSIM_MAIN=1")
		cmd.Dir = t.TempDir()
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		err := cmd.Run()
		if tc.unread == "" {
			if err != nil {
				t.Errorf("padcsim %v: %v\n%s", tc.args, err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("padcsim %v: err = %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.unread) {
			t.Errorf("padcsim %v: stderr does not name %s:\n%s", tc.args, tc.unread, stderr.String())
		}
	}
}

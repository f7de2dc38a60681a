package padc

import (
	"strings"
	"testing"
)

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 55 {
		t.Fatalf("want 55 benchmarks, got %d", len(names))
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"libquantum", "milc", "swim", "art", "eon"} {
		if !found[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
}

func TestRunFacade(t *testing.T) {
	cfg := DefaultSystem(2)
	cfg.TargetInsts = 80_000
	res, err := Run(cfg, []string{"swim", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("want 2 core results, got %d", len(res.PerCore))
	}
	for _, c := range res.PerCore {
		if c.IPC() <= 0 {
			t.Errorf("%s: IPC %v", c.Benchmark, c.IPC())
		}
	}
	if res.Bus.Total() == 0 || res.Cycles == 0 {
		t.Fatal("empty result")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cfg := DefaultSystem(1)
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := Run(cfg, []string{"a", "b"}); err == nil {
		t.Error("too many benchmarks accepted")
	}
	if _, err := Run(cfg, []string{"not-a-benchmark"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// Kind names are parsed, never guessed.
	for _, mod := range []func(*SystemConfig){
		func(c *SystemConfig) { c.Policy = "frfcfs" },
		func(c *SystemConfig) { c.Policy = "" },
		func(c *SystemConfig) { c.Policy = "rules:bogus" },
		func(c *SystemConfig) { c.Prefetcher = "ghb" },
		func(c *SystemConfig) { c.Filter = "bloom" },
		func(c *SystemConfig) { *c = SystemConfig{Policy: "padc", Prefetcher: "stream"} },
	} {
		bad := cfg
		mod(&bad)
		if _, err := Run(bad, []string{"swim"}); err == nil {
			t.Errorf("cores=%d policy=%q prefetcher=%q filter=%q accepted", bad.Cores, bad.Policy, bad.Prefetcher, bad.Filter)
		}
		if _, err := bad.Describe(); err == nil {
			t.Errorf("cores=%d policy=%q prefetcher=%q filter=%q described", bad.Cores, bad.Policy, bad.Prefetcher, bad.Filter)
		}
	}
}

func TestSystemConfigVariantsRun(t *testing.T) {
	mods := []func(*SystemConfig){
		func(c *SystemConfig) { c.Policy = "demand-first" },
		func(c *SystemConfig) { c.Policy = "equal" },
		func(c *SystemConfig) { c.Policy = "prefetch-first" },
		func(c *SystemConfig) { c.Policy = "padc-rank" },
		func(c *SystemConfig) { c.Policy = "rules:critical,rowhit,urgent,fcfs" },
		func(c *SystemConfig) { c.Prefetcher = "stride" },
		func(c *SystemConfig) { c.Filter = "ddpf" },
		func(c *SystemConfig) { c.Filter = "fdp" },
		func(c *SystemConfig) { c.Channels = 2 },
		func(c *SystemConfig) { c.PagePolicy = "closed" },
		func(c *SystemConfig) { c.Permutation = true },
		func(c *SystemConfig) { c.Runahead = true },
		func(c *SystemConfig) { c.SharedL2 = true; c.L2KB = 1024 },
		func(c *SystemConfig) { c.RowBufferKB = 8 },
	}
	for i, mod := range mods {
		cfg := DefaultSystem(2)
		cfg.TargetInsts = 40_000
		mod(&cfg)
		if _, err := Run(cfg, []string{"swim", "eon"}); err != nil {
			t.Errorf("variant %d failed: %v", i, err)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("expected at least 25 experiments, got %d", len(ids))
	}
	if _, err := Experiment("not-an-experiment", false); err == nil {
		t.Error("unknown experiment accepted")
	}
	out, err := Experiment("fig2", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demand-first") || !strings.Contains(out, "demand-pref-equal") {
		t.Fatalf("fig2 output malformed:\n%s", out)
	}
	out, err = Experiment("tab1", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "34720") {
		t.Fatalf("tab1 should report the paper's 34,720 bits:\n%s", out)
	}
}

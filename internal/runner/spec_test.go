package runner

import (
	"encoding/json"
	"strings"
	"testing"

	"padc/internal/sim"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"mixes": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	d := s.withDefaults()
	if d.Cores != 4 || d.Insts != 100_000 || d.Name != "sweep" {
		t.Fatalf("defaults not applied: %+v", d)
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 default policies × 1 prefetcher × 2 mixes.
	if len(jobs) != 6 {
		t.Fatalf("expanded to %d jobs, want 6", len(jobs))
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := map[string]string{
		"bad JSON":            `{"mixes":`,
		"unknown field":       `{"mixez": 2}`,
		"unknown policy":      `{"mixes": 1, "policies": ["frfcfs-typo"]}`,
		"unknown prefetcher":  `{"mixes": 1, "prefetchers": ["ghb"]}`,
		"unknown benchmark":   `{"workloads": [["not-a-bench"]]}`,
		"no workloads":        `{}`,
		"cores too high":      `{"mixes": 1, "cores": 99}`,
		"mix too wide":        `{"cores": 2, "workloads": [["swim","art","milc"]]}`,
		"negative mixes":      `{"mixes": -1}`,
		"grid too large":      `{"mixes": 256, "policies": ["padc","aps","equal","demand-first","no-pref"], "prefetchers": ["stream","stride","cdc","markov"]}`,
		"bad promotion":       `{"mixes": 1, "promotion_thresholds": [1.5]}`,
		"repeated policy":     `{"mixes": 1, "policies": ["padc","padc"]}`,
		"repeated refresh":    `{"mixes": 1, "refresh": ["off",""]}`,
		"promotion collision": `{"mixes": 1, "promotion_thresholds": [0.851, 0.849]}`,
		"padded topology":     `{"mixes": 1, "topologies": [" far-tier"]}`,
		"inline topology":     `{"mixes": 1, "topologies": ["{\"name\":\"x\",\"domains\":[{\"name\":\"a\",\"channels\":1}]}"]}`,
		"unknown axis":        `{"mixes": 1, "axes": {"chanels": [2]}}`,
		"axis on cores":       `{"mixes": 1, "axes": {"cores": [2]}}`,
		"axis on insts":       `{"mixes": 1, "axes": {"target_insts": [5000]}}`,
		"axis on kernel":      `{"mixes": 1, "axes": {"kernel": ["stepped"]}}`,
		"axis on observer":    `{"mixes": 1, "axes": {"Telemetry": [null]}}`,
		"axis on named field": `{"mixes": 1, "axes": {"policy": ["padc"]}}`,
		"axis bad value":      `{"mixes": 1, "axes": {"channels": ["two"]}}`,
		"axis no values":      `{"mixes": 1, "axes": {"channels": []}}`,
		"axis repeats a key":  `{"mixes": 1, "axes": {"channels": [2, 2]}}`,
		"axis bad machine":    `{"mixes": 1, "axes": {"filter": ["sieve"]}}`,
		"alone bad machine":   `{"mixes": 1, "alone": {"policy": "frfcfs-typo"}}`,
		"alone unknown field": `{"mixes": 1, "alone": {"polcy": "padc"}}`,
		"alone sets cores":    `{"mixes": 1, "alone": {"cores": 2}}`,
		"alone bad value":     `{"mixes": 1, "alone": {"channels": "two"}}`,
		"alone not an object": `{"mixes": 1, "alone": null}`,
		"baselines too many":  baselinesPastMaxJobs,
		"second object":       `{"mixes":1,"insts":1000} {"mixes":999}`,
		"trailing garbage":    `{"mixes":1,"insts":1000} trailing garbage`,
	}
	for name, in := range cases {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: spec accepted: %s", name, in)
		}
	}
	// A repeated machine names the key its rows would share.
	_, err := ParseSpec([]byte(cases["promotion collision"]))
	if err == nil || !strings.Contains(err.Error(), "promo=0.85") {
		t.Errorf("collision error does not name the key: %v", err)
	}
	// The baseline jobs alone push that grid past MaxJobs.
	if _, err := ParseSpec([]byte(strings.Replace(baselinesPastMaxJobs, `,"alone":{}`, "", 1))); err != nil {
		t.Errorf("grid without its baselines rejected: %v", err)
	}
	// Repeated workload mixes stay accepted: they run on the same machine
	// and their rows keep apart by index.
	if _, err := ParseSpec([]byte(`{"workloads": [["swim","art"],["swim","art"]]}`)); err != nil {
		t.Errorf("repeated mix rejected: %v", err)
	}
}

// baselinesPastMaxJobs is a 3,240-job grid whose empty alone overlay
// gives every grid machine its own baselines: 3,240 more jobs.
const baselinesPastMaxJobs = `{"cores": 1,
	"workloads": [["swim"],["art"],["milc"],["mcf"],["lbm"],["gcc"],["ammp"],["galgel"],["bwaves"],["soplex"]],
	"policies": ["padc","aps","equal","demand-first","no-pref","prefetch-first"],
	"prefetchers": ["stream","stride","cdc","markov","dspatch","none"],
	"page_policies": ["open","closed","adaptive"], "refresh": ["off","per-bank","all-bank"],"alone":{}}`

// TestExpandDeterministicAndStable pins the expansion order contract:
// indices are dense, keys unique, random mixes are a function of their
// index (not of how many axes precede them), and per-job seeds derive
// from the root seed.
func TestExpandDeterministicAndStable(t *testing.T) {
	spec := Spec{Cores: 2, Mixes: 3, Seed: 11, Policies: []string{"padc", "aps"}}
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Expand()
	keys := map[string]bool{}
	for i := range a {
		if a[i].Index != i {
			t.Fatalf("job %d has index %d", i, a[i].Index)
		}
		if a[i].Key != b[i].Key || a[i].Seed != b[i].Seed {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if keys[a[i].Key] {
			t.Fatalf("duplicate key %q", a[i].Key)
		}
		keys[a[i].Key] = true
	}
	// The same mix index yields the same workloads under a different
	// policy axis (mixes must not depend on grid position).
	wider := Spec{Cores: 2, Mixes: 3, Seed: 11, Policies: []string{"padc", "aps", "equal"}}
	c, _ := wider.Expand()
	for _, j := range c {
		if j.Policy != "padc" {
			continue
		}
		for _, k := range a {
			if k.Policy == "padc" && k.Mix == j.Mix {
				if strings.Join(k.Workloads, "+") != strings.Join(j.Workloads, "+") {
					t.Fatalf("mix %s changed workloads across specs: %v vs %v", j.Mix, k.Workloads, j.Workloads)
				}
			}
		}
	}
	// Different root seeds draw different random mixes.
	other := Spec{Cores: 2, Mixes: 3, Seed: 12, Policies: []string{"padc", "aps"}}
	d, _ := other.Expand()
	same := 0
	for i := range a {
		if strings.Join(a[i].Workloads, "+") == strings.Join(d[i].Workloads, "+") {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("root seed does not influence random mix draws")
	}
}

// TestThresholdAxesReachConfig checks the promotion/drop axes actually
// land in the expanded PADC config.
func TestThresholdAxesReachConfig(t *testing.T) {
	spec := Spec{
		Cores:               2,
		Workloads:           [][]string{{"swim"}},
		Policies:            []string{"padc"},
		PromotionThresholds: []float64{0.5},
		DropCycles:          []uint64{777},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(jobs))
	}
	cfg := jobs[0].Config
	if cfg.PADC.PromotionThreshold != 0.5 {
		t.Errorf("promotion threshold not applied: %v", cfg.PADC.PromotionThreshold)
	}
	if len(cfg.PADC.DropLadder) != 1 || cfg.PADC.DropLadder[0].Cycles != 777 {
		t.Errorf("drop ladder not flattened: %+v", cfg.PADC.DropLadder)
	}
	if !strings.Contains(jobs[0].Key, "promo=0.50") || !strings.Contains(jobs[0].Key, "drop=777") {
		t.Errorf("threshold axes missing from key %q", jobs[0].Key)
	}
}

// TestRuleStackPolicyAxis covers the "rules:" sweep vocabulary: explicit
// rule stacks expand like any other policy (reaching Config.Rules with
// APD off, so the grid isolates scheduling order), and malformed stacks
// are rejected at spec validation.
func TestRuleStackPolicyAxis(t *testing.T) {
	stack := "rules:critical,rowhit,urgent,fcfs"
	spec := Spec{
		Cores:     2,
		Workloads: [][]string{{"swim"}},
		Policies:  []string{stack, "aps"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d", len(jobs))
	}
	cfg := jobs[0].Config
	if cfg.Rules != stack {
		t.Errorf("rule stack not applied: %q", cfg.Rules)
	}
	if cfg.PADC.EnableAPD {
		t.Error("rule-stack policy left APD enabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("expanded config invalid: %v", err)
	}
	if !strings.Contains(jobs[0].Key, "policy="+stack) {
		t.Errorf("rule stack missing from key %q", jobs[0].Key)
	}
	for _, bad := range []string{"rules:", "rules:frobnicate", "rules:fcfs,rowhit"} {
		s := Spec{Cores: 2, Workloads: [][]string{{"swim"}}, Policies: []string{bad}}
		if _, err := s.Expand(); err == nil {
			t.Errorf("bad stack %q accepted", bad)
		}
	}
}

// FuzzSpecJSON feeds arbitrary bytes through the spec parser: parsing
// must never panic, and any spec it accepts must expand to a bounded,
// well-formed job list.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"mixes": 2}`))
	f.Add([]byte(`{"name":"x","seed":9,"cores":2,"insts":1000,"policies":["padc"],"workloads":[["swim","art"]]}`))
	f.Add([]byte(`{"mixes": 1, "drop_cycles": [100, 0], "promotion_thresholds": [0.25]}`))
	f.Add([]byte(`{"policies": ["no-pref","prefetch-first"], "prefetchers": ["markov"], "mixes": 3}`))
	f.Add([]byte(`{"mixes": 1, "policies": ["padc","padc"]}`))
	f.Add([]byte(`{"mixes": 1, "refresh": ["off",""]}`))
	f.Add([]byte(`{"mixes": 1, "promotion_thresholds": [0.851, 0.849]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"cores": -1}`))
	f.Add([]byte(`{"cores":2,"workloads":[["swim","art"]],"axes":{"channels":[1,2],"permutation":[false,true]},"alone":{"policy":"demand-first","permutation":false}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"chanels": [2]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"cores": [2]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"target_insts": [5000]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"kernel": ["stepped"]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"Telemetry": [null]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"policy": ["padc"]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"channels": ["two"]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"channels": []}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"channels": [2, 2]}}`))
	f.Add([]byte(`{"mixes": 1, "axes": {"filter": ["sieve"]}}`))
	f.Add([]byte(`{"mixes": 1, "alone": {"policy": "frfcfs-typo"}}`))
	f.Add([]byte(`{"mixes": 1, "alone": {"polcy": "padc"}}`))
	f.Add([]byte(`{"mixes": 1, "alone": {"cores": 2}}`))
	f.Add([]byte(`{"mixes": 1, "alone": {"channels": "two"}}`))
	f.Add([]byte(`{"mixes": 1, "alone": null}`))
	f.Add([]byte(baselinesPastMaxJobs))
	f.Add([]byte(`{"mixes":1,"insts":1000} {"mixes":999}`))
	f.Add([]byte(`{"mixes":1,"insts":1000} trailing garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatalf("validated spec failed to expand: %v", err)
		}
		if len(jobs) == 0 || len(jobs) > MaxJobs {
			t.Fatalf("accepted spec expanded to %d jobs (bounds 1..%d)", len(jobs), MaxJobs)
		}
		seen := map[string]bool{}
		for i, j := range jobs {
			if j.Index != i {
				t.Fatalf("job %d carries index %d", i, j.Index)
			}
			if seen[j.Key] {
				t.Fatalf("duplicate job key %q", j.Key)
			}
			seen[j.Key] = true
			if len(j.Config.Workload) == 0 {
				t.Fatalf("job %q has no workload", j.Key)
			}
			if err := j.Config.Validate(); err != nil {
				t.Fatalf("job %q expanded to invalid config: %v", j.Key, err)
			}
		}
		// A spec must round-trip through JSON without changing its grid.
		re, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := ParseSpec(re)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v", err)
		}
		jobs2, err := spec2.Expand()
		if err != nil || len(jobs2) != len(jobs) {
			t.Fatalf("round-tripped spec expands differently: %d vs %d (%v)", len(jobs), len(jobs2), err)
		}
	})
}

func TestRefreshAndPageAxes(t *testing.T) {
	spec := Spec{
		Cores:        2,
		Workloads:    [][]string{{"swim"}},
		Policies:     []string{"padc"},
		Refresh:      []string{"off", "per-bank", "all-bank"},
		PagePolicies: []string{"open", "closed", "adaptive"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 9 {
		t.Fatalf("want 3x3 = 9 jobs, got %d", len(jobs))
	}
	sawEnabled := false
	for _, j := range jobs {
		rf := j.Config.DRAM.Refresh
		switch j.Refresh {
		case "":
			if rf.Enabled() {
				t.Errorf("%s: refresh enabled for the off axis value", j.Key)
			}
			if strings.Contains(j.Key, "refresh=") {
				t.Errorf("default refresh leaked into key %q", j.Key)
			}
		case "per-bank", "all-bank":
			sawEnabled = true
			if !rf.Enabled() || rf.Mode.String() != j.Refresh {
				t.Errorf("%s: refresh mode %v not applied", j.Key, rf.Mode)
			}
			if !strings.Contains(j.Key, "refresh="+j.Refresh) {
				t.Errorf("refresh axis missing from key %q", j.Key)
			}
		default:
			t.Errorf("unexpected normalized refresh value %q", j.Refresh)
		}
		switch j.Page {
		case "":
			if j.Config.DRAM.Page.String() != "open" {
				t.Errorf("%s: default page policy not open", j.Key)
			}
			if strings.Contains(j.Key, "page=") {
				t.Errorf("default page leaked into key %q", j.Key)
			}
		case "closed", "adaptive":
			if j.Config.DRAM.Page.String() != j.Page {
				t.Errorf("%s: page policy %v not applied", j.Key, j.Config.DRAM.Page)
			}
			if !strings.Contains(j.Key, "page="+j.Page) {
				t.Errorf("page axis missing from key %q", j.Key)
			}
		default:
			t.Errorf("unexpected normalized page value %q", j.Page)
		}
	}
	if !sawEnabled {
		t.Fatal("no refresh-enabled job expanded")
	}

	// The explicit-default spelling and the omitted axis produce identical
	// job keys (golden-compatibility contract).
	plain := Spec{Cores: 2, Workloads: [][]string{{"swim"}}, Policies: []string{"padc"}}
	spelled := Spec{Cores: 2, Workloads: [][]string{{"swim"}}, Policies: []string{"padc"},
		Refresh: []string{"off"}, PagePolicies: []string{"open"}}
	a, _ := plain.Expand()
	b, _ := spelled.Expand()
	if a[0].Key != b[0].Key {
		t.Fatalf("explicit defaults changed the key: %q vs %q", a[0].Key, b[0].Key)
	}

	for name, in := range map[string]string{
		"bad refresh": `{"mixes": 1, "refresh": ["hourly"]}`,
		"bad page":    `{"mixes": 1, "page_policies": ["ajar"]}`,
	} {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
}

func TestMemSideAxis(t *testing.T) {
	spec := Spec{
		Cores:       2,
		Workloads:   [][]string{{"swim"}},
		Policies:    []string{"padc"},
		Prefetchers: []string{"dspatch"},
		MemSide:     []string{"off", "on"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("want off+on = 2 jobs, got %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Config.Prefetcher != sim.PFDSPatch {
			t.Errorf("%s: dspatch prefetcher not applied", j.Key)
		}
		switch j.MemSide {
		case "":
			if j.Config.MemSide {
				t.Errorf("%s: memside enabled for the off axis value", j.Key)
			}
			if strings.Contains(j.Key, "memside=") {
				t.Errorf("default memside leaked into key %q", j.Key)
			}
		case "on":
			if !j.Config.MemSide {
				t.Errorf("%s: memside not applied", j.Key)
			}
			if !strings.Contains(j.Key, "memside=on") {
				t.Errorf("memside axis missing from key %q", j.Key)
			}
		default:
			t.Errorf("unexpected normalized memside value %q", j.MemSide)
		}
	}

	// Explicit "off" and an omitted axis produce identical job keys.
	plain := Spec{Cores: 2, Workloads: [][]string{{"swim"}}, Policies: []string{"padc"}}
	spelled := Spec{Cores: 2, Workloads: [][]string{{"swim"}}, Policies: []string{"padc"},
		MemSide: []string{"off"}}
	a, _ := plain.Expand()
	b, _ := spelled.Expand()
	if a[0].Key != b[0].Key {
		t.Fatalf("explicit default changed the key: %q vs %q", a[0].Key, b[0].Key)
	}

	if _, err := ParseSpec([]byte(`{"mixes": 1, "memside": ["sideways"]}`)); err == nil {
		t.Error("bad memside value accepted")
	}
}

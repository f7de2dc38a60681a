package runner

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden sweep artifacts")

// goldenSpec is the paper-shaped comparison: FR-FCFS (demand-pref-equal)
// vs. APS vs. APS+APD (full PADC) on two fixed synthetic workload mixes —
// a prefetch-friendly one (swim+libquantum streams) and an unfriendly one
// (art+milc pointer/random traffic). The golden CSV pins every merged
// metric; any behavioral drift in the scheduler, prefetchers, or trace
// generators fails this test until the change is reviewed and the file
// regenerated with `go test ./internal/runner -run Golden -update`.
func goldenSpec() Spec {
	return Spec{
		Name:     "golden-frfcfs-aps-padc",
		Seed:     2008, // MICRO 2008
		Cores:    2,
		Insts:    12_000,
		Policies: []string{"equal", "aps", "padc"},
		Workloads: [][]string{
			{"swim", "libquantum"},
			{"art", "milc"},
		},
	}
}

func TestGoldenPolicyComparison(t *testing.T) {
	res, err := Run(goldenSpec(), Options{Workers: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Failed(); n > 0 {
		t.Fatalf("%d golden jobs failed", n)
	}

	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sweep_policies.csv", csv.Bytes())
	compareGolden(t, "sweep_policies.json", js.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted from golden artifact:\n%s\nrerun with -update if the change is intentional",
			name, firstDiff(string(want), string(got)))
	}
}

// expandSpec touches every grid axis with a non-default value: a named
// policy and a rule stack, two prefetchers, a promotion threshold and a
// flat drop ladder, refresh, page policy, the far-tier topology, the
// memory-side path, and one explicit plus one random mix.
func expandSpec() Spec {
	return Spec{
		Name:                "golden-expand",
		Seed:                41,
		Cores:               2,
		Insts:               5_000,
		Policies:            []string{"padc", "rules:critical,rowhit,urgent,fcfs"},
		Prefetchers:         []string{"stream", "dspatch"},
		PromotionThresholds: []float64{0.6},
		DropCycles:          []uint64{300},
		Refresh:             []string{"per-bank"},
		PagePolicies:        []string{"closed"},
		Topologies:          []string{"far-tier"},
		MemSide:             []string{"on"},
		Workloads:           [][]string{{"swim", "art"}},
		Mixes:               1,
	}
}

// TestExpandConfigsGolden pins every expanded job's key and lowered
// simulator config, so a change to how grid names become machines fails
// here even for axes the simulated goldens only run at their defaults.
func TestExpandConfigsGolden(t *testing.T) {
	jobs, err := expandSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, j := range jobs {
		cfg := j.Config
		names := make([]string, len(cfg.Workload))
		for i, p := range cfg.Workload {
			names[i] = p.Name
		}
		cfg.Workload = nil
		js, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%d %d %s workloads=%s\n%s\n", j.Index, j.Seed, j.Key, strings.Join(names, "+"), js)
	}
	compareGolden(t, "expand_configs.golden", buf.Bytes())
}

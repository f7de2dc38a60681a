package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"padc/internal/workload"
)

// TestMain lets the smoke test spawn this test binary as the benchmark's
// child processes, exactly as the benchmark spawns itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeScale shrinks every workload to a few thousand instructions (and
// the campaign to one mix) so the smoke test stays fast under -race.
const smokeScale = 0.001

func benchmarkDef(t *testing.T) *benchmarkFile {
	t.Helper()
	def, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestDeclarationsMatchBenchmarkFile keeps the workloads and metric tables
// the code reports in step with BENCHMARK.json.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	def := benchmarkDef(t)
	var got, want [][2]string
	for _, w := range workloads {
		got = append(got, [2]string{w.name, w.why})
	}
	for _, w := range def.Workloads {
		want = append(want, [2]string{w.Name, w.Why})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads = %q, BENCHMARK.json has %q", got, want)
	}
	got, want = nil, nil
	for _, d := range endToEnd {
		got = append(got, [2]string{d.name, d.unit})
	}
	for _, d := range def.EndToEnd {
		want = append(want, [2]string{d.Name, d.Unit})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics = %q, BENCHMARK.json has %q", got, want)
	}
	got, want = nil, nil
	for _, d := range perLayer {
		got = append(got, [2]string{d.name, d.unit})
	}
	for _, d := range def.PerLayer {
		want = append(want, [2]string{d.Name, d.Unit})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics = %q, BENCHMARK.json has %q", got, want)
	}
}

// TestSmokeEveryWorkload runs every workload end to end — child processes,
// setup samples, timed ops, probes and profiled ops — at tiny scale, and
// requires every declared metric with its unit, no failed op, and the
// same digest from a second process with the same seed.
func TestSmokeEveryWorkload(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Under -race every child would otherwise sleep a second at exit.
	t.Setenv("GORACE", os.Getenv("GORACE")+" atexit_sleep_ms=0")
	o := options{seed: 1, trace: true, scale: smokeScale, minOps: 2, workdir: t.TempDir()}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	results, err := runAll(exe, names, o, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Workload != names[i] || res.Failed != 0 || res.Attempted < 3 || res.Digest == "" {
			t.Errorf("%s: %d of %d ops failed %v, digest %q", res.Workload, res.Failed, res.Attempted, res.Failures, res.Digest)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", res.Workload, d.name, m, d.unit)
			}
		}
	}

	again, err := runAll(exe, names, options{seed: 1, scale: smokeScale, minOps: 1, workdir: o.workdir}, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if res.Digest != results[i].Digest {
			t.Errorf("%s: digest %s in a second process, %s in the first", res.Workload, res.Digest, results[i].Digest)
		}
	}
	entries, err := os.ReadDir(o.workdir)
	if err != nil || len(entries) != 0 {
		t.Errorf("campaign data directories left behind: %v %v", entries, err)
	}
}

// TestSeedShapesInputs checks the seed's reach: it permutes which core
// runs which profile of a multi-core mix, and the campaign keeps its
// multiset of profiles — each Suite profile exactly twice — while the seed
// pairs them.
func TestSeedShapesInputs(t *testing.T) {
	a, b := shuffled(stress8Mix, 1), shuffled(stress8Mix, 2)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 place stress8's profiles identically")
	}
	slices.Sort(a)
	want := slices.Clone(stress8Mix)
	slices.Sort(want)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("shuffled mix %q is not a permutation of %q", a, want)
	}

	counts := map[string]int{}
	c1, c2 := campaignSpec(1, 1), campaignSpec(2, 1)
	for _, mix := range c1.Workloads {
		for _, name := range mix {
			counts[name]++
		}
	}
	for _, p := range workload.Suite() {
		if counts[p.Name] != 2 {
			t.Errorf("campaign runs %s %d times, want 2", p.Name, counts[p.Name])
		}
	}
	if reflect.DeepEqual(c1.Workloads, c2.Workloads) {
		t.Error("seeds 1 and 2 pair the campaign's profiles identically")
	}
	if jobs, err := c1.Expand(); err != nil || len(jobs) != 84 {
		t.Errorf("campaign expands to %d jobs (%v), want 84", len(jobs), err)
	}
}

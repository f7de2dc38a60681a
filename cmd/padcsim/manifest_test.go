package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"padc/internal/runner"
)

// manifestArgs is the padcsim run whose observer artifacts the manifest
// pins: two cores over a far tier with memory-side prefetch and per-bank
// refresh, so the event ring holds all nine event kinds, and every
// telemetry, flight-recorder and lifecycle export switched on.
var manifestArgs = []string{
	"-bench", "swim,art", "-insts", "30000", "-memside", "-topology", "far-tier",
	"-refresh", "per-bank", "-epoch", "2000",
	"-metrics", "metrics.csv", "-trace", "trace.json", "-events", "events.jsonl",
	"-spans", "spans.jsonl", "-breakdown", "breakdown.csv", "-profile", "-v",
}

// manifestFile is one pinned artifact.
type manifestFile struct {
	name string
	data []byte
}

// line renders the artifact's manifest entry: name, byte count, sha256.
func (f manifestFile) line() string {
	return fmt.Sprintf("%s %d %x\n", f.name, len(f.data), sha256.Sum256(f.data))
}

// runManifestCLI runs padcsim with manifestArgs plus -heatmap heatmap in
// a fresh directory and returns stdout and every file the run wrote, in
// name order.
func runManifestCLI(t *testing.T, heatmap string) []manifestFile {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], append(append([]string(nil), manifestArgs...), "-heatmap", heatmap)...)
	cmd.Env = append(os.Environ(), "PADCSIM_MAIN=1")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("padcsim %s: %v\n%s", strings.Join(cmd.Args[1:], " "), err, stderr.String())
	}
	files := []manifestFile{{"stdout", stdout.Bytes()}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, manifestFile{e.Name(), data})
	}
	return files
}

// runManifestSweep runs one sweep job with invariant checks and the
// flight recorder on, and returns its flight roll-up and its row (the
// roll-up stripped) as JSON.
func runManifestSweep(t *testing.T) []manifestFile {
	t.Helper()
	spec := runner.Spec{
		Name: "manifest", Seed: 9, Cores: 2, Insts: 6_000,
		Policies: []string{"padc"}, Refresh: []string{"per-bank"},
		Workloads: [][]string{{"swim", "libquantum"}},
	}
	res, err := runner.Run(spec, runner.Options{Workers: 1, Verify: true, Flight: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Err != "" || res.Jobs[0].Flight == nil {
		t.Fatalf("want one clean job with a flight roll-up, got %+v", res.Jobs)
	}
	job := res.Jobs[0]
	flightJSON, err := json.Marshal(job.Flight)
	if err != nil {
		t.Fatal(err)
	}
	job.Flight = nil
	rowJSON, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	return []manifestFile{{"sweep/flight.json", flightJSON}, {"sweep/row.json", rowJSON}}
}

// TestObserverManifestGolden pins every observer artifact by name, byte
// count and sha256: padcsim's stdout and each export of one fully
// observed run (twice, for the CSV and the JSONL heatmap), and one sweep
// job's flight roll-up and row. The events and trace files run to
// megabytes, so the golden holds digests; on a mismatch the test writes
// what it got to a temporary directory and names the files (regenerate
// with go test ./cmd/padcsim -run ObserverManifestGolden -update).
func TestObserverManifestGolden(t *testing.T) {
	var files []manifestFile
	for _, f := range runManifestCLI(t, "heatmap.csv") {
		files = append(files, manifestFile{"csv/" + f.name, f.data})
	}
	for _, f := range runManifestCLI(t, "heatmap.jsonl") {
		files = append(files, manifestFile{"jsonl/" + f.name, f.data})
	}
	files = append(files, runManifestSweep(t)...)

	var got bytes.Buffer
	for _, f := range files {
		got.WriteString(f.line())
	}
	path := filepath.Join("testdata", "observers.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.SplitAfter(string(want), "\n") {
		wantLines[l] = true
	}
	out := t.TempDir()
	for _, f := range files {
		if wantLines[f.line()] {
			continue
		}
		p := filepath.Join(out, strings.ReplaceAll(f.name, "/", "_"))
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s differs from %s: got %s", f.name, path, p)
	}
	t.Fatalf("manifest differs from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
}

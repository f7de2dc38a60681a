package padc

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"padc/internal/exp"
)

var update = flag.Bool("update", false, "regenerate testdata/paper_sweeps.golden")

// TestPaperSweepsExpansionGolden pins how every paper sweep expands, at
// both scales: one line per sweep id and scale with its job count and a
// sha256 over each job's index, key, seed, grid Point and lowered
// sim.Config. A change to how specs become jobs, keys, seeds or machines
// fails here without simulating anything; regenerate with
// `go test . -run PaperSweepsExpansionGolden -update` only when the
// change is meant.
func TestPaperSweepsExpansionGolden(t *testing.T) {
	scales := []struct {
		name string
		sc   exp.Scale
	}{{"quick", exp.Quick()}, {"full", exp.Full()}}
	var buf bytes.Buffer
	for _, id := range sortedKeys(sweeps) {
		for _, s := range scales {
			jobs, err := sweeps[id](s.sc).Spec.Expand()
			if err != nil {
				t.Fatalf("%s at %s scale: %v", id, s.name, err)
			}
			h := sha256.New()
			for _, j := range jobs {
				point, err := json.Marshal(j.Point)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := json.Marshal(j.Config)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d %s %d %s %s\n", j.Index, j.Key, j.Seed, point, cfg)
			}
			fmt.Fprintf(&buf, "%s %s jobs=%d sha256=%x\n", id, s.name, len(jobs), h.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "paper_sweeps.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("paper sweep expansion drifted from %s:\ngot:\n%s", path, buf.Bytes())
	}
}

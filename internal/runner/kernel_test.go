package runner

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"padc/internal/sim"
)

// TestKernelArtifactIdentity runs the golden paper-shaped sweep's jobs
// under both simulation kernels (and different worker counts, for good
// measure) and requires byte-identical CSV and JSON artifacts, equal to
// Run's: the kernel is a loop strategy, never a results axis.
func TestKernelArtifactIdentity(t *testing.T) {
	spec := goldenSpec()
	spec.Insts = 6_000
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	artifacts := func(res *SweepResult) (csv, js []byte) {
		t.Helper()
		if n := res.Failed(); n > 0 {
			t.Fatalf("%d jobs failed", n)
		}
		var c, j bytes.Buffer
		if err := res.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes()
	}
	render := func(kernel sim.Kernel, workers int) (csv, js []byte) {
		t.Helper()
		rows := make([]JobResult, len(jobs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					j := jobs[i]
					j.Config.Kernel = kernel
					rows[i] = runJob(j, true, false)
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
		return artifacts(MergeRows(spec, rows))
	}

	eventsCSV, eventsJSON := render(sim.KernelEvents, 4)
	steppedCSV, steppedJSON := render(sim.KernelStepped, 1)
	res, err := Run(spec, Options{Workers: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	runCSV, runJSON := artifacts(res)

	if !bytes.Equal(eventsCSV, steppedCSV) {
		t.Errorf("CSV artifacts differ between kernels:\n%s", firstDiff(string(steppedCSV), string(eventsCSV)))
	}
	if !bytes.Equal(eventsJSON, steppedJSON) {
		t.Errorf("JSON artifacts differ between kernels:\n%s", firstDiff(string(steppedJSON), string(eventsJSON)))
	}
	if !bytes.Equal(eventsCSV, runCSV) || !bytes.Equal(eventsJSON, runJSON) {
		t.Error("Run's artifacts differ from the event kernel's")
	}
}

// TestKernelSpecValidation pins that the kernel is no sweep vocabulary: a
// spec field, a generic axis or an alone overlay that names it is an
// unknown name.
func TestKernelSpecValidation(t *testing.T) {
	for _, spec := range []string{
		`{"mixes": 1, "kernel": "stepped"}`,
		`{"mixes": 1, "axes": {"kernel": ["stepped"]}}`,
		`{"mixes": 1, "alone": {"kernel": "stepped"}}`,
	} {
		_, err := ParseSpec([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), "kernel") {
			t.Errorf("ParseSpec(%s) = %v, want an error naming kernel", spec, err)
		}
	}
}

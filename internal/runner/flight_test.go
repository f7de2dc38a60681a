package runner

import (
	"bytes"
	"encoding/json"
	"testing"
)

// flightSpec is a small grid that exercises refresh and the adaptive
// page policy, so the recorded summaries carry every cell field.
func flightSpec() Spec {
	return Spec{
		Name:      "flight",
		Seed:      9,
		Cores:     2,
		Insts:     6_000,
		Policies:  []string{"demand-first", "padc"},
		Workloads: [][]string{{"swim", "libquantum"}},
		Mixes:     2,
	}
}

// TestFlightSummaryWorkerInvariance pins the telemetry determinism
// contract: the per-job flight summary is a pure function of the job's
// configuration, so its serialized form is byte-identical across worker
// counts — which is what makes journaled heatmap artifacts safe to
// merge from a sharded fleet.
func TestFlightSummaryWorkerInvariance(t *testing.T) {
	opts := Options{Flight: true}
	opts.Workers = 1
	serial, err := Run(flightSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	parallel, err := Run(flightSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Jobs) == 0 || len(serial.Jobs) != len(parallel.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(serial.Jobs), len(parallel.Jobs))
	}
	for i := range serial.Jobs {
		sj, pj := serial.Jobs[i], parallel.Jobs[i]
		if sj.Flight == nil || pj.Flight == nil {
			t.Fatalf("job %s missing flight summary (serial %v, parallel %v)",
				sj.Key, sj.Flight != nil, pj.Flight != nil)
		}
		sb, err := json.Marshal(sj.Flight)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(pj.Flight)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, pb) {
			t.Fatalf("job %s flight summary differs across worker counts:\n1 worker: %s\n4 workers: %s",
				sj.Key, sb, pb)
		}
		if len(sj.Flight.Totals) == 0 {
			t.Fatalf("job %s flight summary has no totals", sj.Key)
		}
		var hits uint64
		for _, c := range sj.Flight.Totals {
			hits += c.Hits + c.Closed + c.Conflicts
		}
		if hits == 0 {
			t.Fatalf("job %s flight summary recorded no bank accesses", sj.Key)
		}
	}
}

// TestFlightOffKeepsArtifactsIdentical is the feature-off guard: a sweep
// without Options.Flight records nothing, and the CSV/JSON artifacts stay
// byte-identical whether the flight recorder ran or not (the CSV has
// fixed columns; the JSON omits the flight field entirely when absent).
func TestFlightOffKeepsArtifactsIdentical(t *testing.T) {
	plain, err := Run(flightSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plain.Jobs {
		if j.Flight != nil {
			t.Fatalf("job %s carries a flight summary without Options.Flight", j.Key)
		}
	}
	plainCSV, plainJSON := artifacts(t, plain)

	recorded, err := Run(flightSpec(), Options{Workers: 2, Flight: true})
	if err != nil {
		t.Fatal(err)
	}
	recCSV, _ := artifacts(t, recorded)
	if recCSV != plainCSV {
		t.Fatal("enabling the flight recorder changed the CSV artifact")
	}
	// Stripping the summaries must recover the exact plain JSON: the
	// recorder may not perturb any metric column.
	for i := range recorded.Jobs {
		recorded.Jobs[i].Flight = nil
	}
	strippedCSV, strippedJSON := artifacts(t, recorded)
	if strippedCSV != plainCSV || strippedJSON != plainJSON {
		t.Fatal("flight recorder perturbed the metric columns")
	}
}

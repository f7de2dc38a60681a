package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// runTelemetryCampaign submits testSpecJSON with telemetry enabled on a
// fresh service with the given worker count, waits for completion, and
// returns the raw NDJSON body of the telemetry endpoint plus the CSV
// artifact bytes.
func runTelemetryCampaign(t *testing.T, workers int) (ndjson, csv []byte) {
	t.Helper()
	s := newTestService(t, t.TempDir(), workers)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	info, err := cl.Submit(ctx, SubmitRequest{
		Spec:      json.RawMessage(testSpecJSON),
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Telemetry {
		t.Fatalf("submit response lost the telemetry flag: %+v", info)
	}
	if _, err := cl.Wait(ctx, info.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	ndjson, err = cl.Telemetry(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	csv, err = cl.Artifact(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	return ndjson, csv
}

// TestTelemetryEndToEnd drives the per-job roll-up path over HTTP: a
// telemetry campaign produces one NDJSON record per job, each carrying a
// non-empty flight summary, sorted by (key, index), while the CSV
// artifact stays byte-identical to a telemetry-off run.
func TestTelemetryEndToEnd(t *testing.T) {
	_, wantCSV, _ := localArtifacts(t, testSpecJSON, 2)
	ndjson, csv := runTelemetryCampaign(t, 2)

	if !bytes.Equal(csv, wantCSV) {
		t.Error("telemetry campaign changed the CSV artifact")
	}

	lines := strings.Split(strings.TrimRight(string(ndjson), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("telemetry NDJSON has %d records, want 6:\n%s", len(lines), ndjson)
	}
	var prev TelemetryRecord
	for i, line := range lines {
		var rec TelemetryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.Key == "" || rec.Flight == nil || len(rec.Flight.Totals) == 0 {
			t.Fatalf("record %d incomplete: %s", i, line)
		}
		if i > 0 && (rec.Key < prev.Key || (rec.Key == prev.Key && rec.Index <= prev.Index)) {
			t.Fatalf("records not sorted by (key, index): %q after %q", rec.Key, prev.Key)
		}
		prev = rec
	}
}

// TestTelemetryWorkerInvariance pins the fleet-merge contract at the
// service layer: the served NDJSON is byte-identical whatever the worker
// count, because records are keyed, deduplicated, and sorted rather than
// served in completion order.
func TestTelemetryWorkerInvariance(t *testing.T) {
	one, _ := runTelemetryCampaign(t, 1)
	four, _ := runTelemetryCampaign(t, 4)
	if !bytes.Equal(one, four) {
		t.Fatalf("telemetry NDJSON differs across worker counts (%d vs %d bytes)", len(one), len(four))
	}
}

// TestTelemetryNotRecorded checks the 404 contract: campaigns submitted
// without telemetry have no flight records and the endpoint says so,
// rather than serving an empty stream that looks like a zero-job campaign.
func TestTelemetryNotRecorded(t *testing.T) {
	s := newTestService(t, t.TempDir(), 2)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	info, err := cl.Submit(ctx, SubmitRequest{Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, info.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Telemetry(ctx, info.ID, false); err == nil ||
		!strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("telemetry fetch on a non-telemetry campaign: err = %v", err)
	}
}

// TestTelemetrySurvivesResume restarts the service after completion and
// checks the journal-backed endpoint still serves identical bytes — the
// roll-ups are durable, not an in-memory artifact of the original run.
func TestTelemetrySurvivesResume(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, dir, 2)
	c, err := s.Submit(SubmitRequest{
		Spec:      json.RawMessage(testSpecJSON),
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := c.TelemetryRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 {
		t.Fatalf("recorded %d telemetry rows, want 6", len(want))
	}
	s.Close()

	s2 := newTestService(t, dir, 2)
	defer s2.Close()
	c2, ok := s2.Campaign(c.ID)
	if !ok {
		t.Fatal("campaign lost on restart")
	}
	if !c2.Telemetry() {
		t.Fatal("telemetry flag lost on restart")
	}
	got, err := c2.TelemetryRecords()
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Fatal("telemetry records changed across service restart")
	}
}

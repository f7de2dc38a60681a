package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"padc/internal/runner"
)

// testSpecJSON is the tiny campaign the service tests submit: 2 policies
// × (1 explicit + 2 random) mixes = 6 jobs, small enough for test
// latency, big enough to observe streaming and sharding.
const testSpecJSON = `{
	"name": "svc",
	"seed": 11,
	"cores": 2,
	"insts": 6000,
	"policies": ["demand-first", "padc"],
	"workloads": [["swim", "art"]],
	"mixes": 2
}`

// localArtifacts runs the spec in-process (the `padcsim -sweep` path) and
// returns the golden CSV/JSON bytes the service must reproduce.
func localArtifacts(t *testing.T, specJSON string, workers int) (spec runner.Spec, csv, js []byte) {
	t.Helper()
	spec, err := runner.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(spec, runner.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return spec, cb.Bytes(), jb.Bytes()
}

// testLogger routes the service's structured logs (Debug and up, so the
// per-job lines show too) into the test log.
func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func newTestService(t *testing.T, dir string, workers int) *Service {
	t.Helper()
	s, err := NewService(ServiceOptions{
		DataDir: dir,
		Workers: workers,
		Resume:  true,
		Logger:  testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCampaignLifecycleHTTP drives the full HTTP surface end to end:
// submit a spec, stream every row live, wait for completion, and verify
// the served CSV and JSON artifacts are byte-identical to an in-process
// run — plus status, listing, and per-campaign Prometheus metrics.
func TestCampaignLifecycleHTTP(t *testing.T) {
	_, wantCSV, wantJSON := localArtifacts(t, testSpecJSON, 3)

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
	if info.Total != 6 || info.State == "" {
		t.Fatalf("implausible submit response: %+v", info)
	}

	// Stream all rows live; the stream must deliver each exactly once and
	// end with the terminal event.
	var seqs []int
	var final string
	err = cl.StreamRows(ctx, info.ID, 0, func(ev RowEvent) error {
		if ev.Row != nil {
			seqs = append(seqs, ev.Seq)
		}
		if ev.Done {
			final = ev.State
		}
		return nil
	})
	if err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	if len(seqs) != info.Total || final != "completed" {
		t.Fatalf("stream delivered %d rows (want %d), final state %q", len(seqs), info.Total, final)
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("row seq gap: %v", seqs)
		}
	}

	got, err := cl.Wait(ctx, info.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "completed" || got.Done != got.Total || got.Failed != 0 || got.CheckpointLag != 0 {
		t.Fatalf("terminal status: %+v", got)
	}

	csv, err := cl.Artifact(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	js, err := cl.Artifact(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("served CSV differs from in-process sweep (%d vs %d bytes)", len(csv), len(wantCSV))
	}
	if !bytes.Equal(js, wantJSON) {
		t.Errorf("served JSON differs from in-process sweep (%d vs %d bytes)", len(js), len(wantJSON))
	}

	list, err := cl.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("List = %+v, err %v", list, err)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	s.Handler().ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{
		`padc_sweepd_jobs_done{campaign="` + info.ID + `"} 6`,
		`padc_sweepd_jobs_total{campaign="` + info.ID + `"} 6`,
		`padc_sweepd_checkpoint_lag{campaign="` + info.ID + `"} 0`,
		`padc_sweepd_campaign_state{campaign="` + info.ID + `"} 2`,
		`padc_sweepd_rows_streamed{campaign="` + info.ID + `"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
}

// TestSubmitRejects pins the API-level validation errors: no spec,
// unknown spec fields, bad shard, empty shard slice.
func TestSubmitRejects(t *testing.T) {
	s := newTestService(t, t.TempDir(), 1)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, _ := NewClient(srv.URL)
	ctx := context.Background()

	cases := map[string]SubmitRequest{
		"no spec":      {},
		"unknown axis": {Spec: json.RawMessage(`{"mixes":1,"bogus":true}`)},
		"bad shard":    {Spec: json.RawMessage(`{"mixes":1}`), Shard: runner.Shard{Index: 5, Count: 2}},
	}
	for name, req := range cases {
		if _, err := cl.Submit(ctx, req); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Client.Submit marshals one request, so a body with a second value
	// after it goes out raw.
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"spec":{"mixes":1,"insts":1000}} {"spec":{"mixes":999}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing-data body: status %d, want 400", resp.StatusCode)
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("rejected submits left %d campaigns", n)
	}
	if _, err := cl.Info(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Errorf("missing campaign error = %v", err)
	}
}

// TestCancelCampaignSticky cancels mid-run and checks the state is
// terminal, journaled, and survives a service restart (a cancelled
// campaign must not resume).
func TestCancelCampaignSticky(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, dir, 1)
	c, err := s.Submit(SubmitRequest{Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as at least one row lands so the journal is non-trivial.
	deadline := time.After(30 * time.Second)
	for c.Info().Done == 0 {
		select {
		case <-deadline:
			t.Fatal("no rows completed")
		case <-time.After(time.Millisecond):
		}
	}
	if err := s.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	info := c.Info()
	if info.State != "cancelled" {
		t.Fatalf("state after cancel = %q", info.State)
	}
	if err := s.Cancel(c.ID); err == nil {
		t.Error("second cancel succeeded")
	}
	s.Close()

	s2 := newTestService(t, dir, 1)
	defer s2.Close()
	c2, ok := s2.Campaign(c.ID)
	if !ok {
		t.Fatal("cancelled campaign lost on restart")
	}
	if got := c2.Info(); got.State != "cancelled" || got.Done != info.Done {
		t.Fatalf("restart mangled cancelled campaign: %+v (was %+v)", got, info)
	}
}

// TestSlowConsumerDisconnect is the backpressure contract: a subscriber
// that never drains its bounded window is shed (lagged, channel closed)
// while the campaign itself runs to completion unimpeded.
func TestSlowConsumerDisconnect(t *testing.T) {
	s, err := NewService(ServiceOptions{
		DataDir:      t.TempDir(),
		Workers:      2,
		StreamWindow: 1, // window far smaller than the 6-row campaign
		Resume:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.Submit(SubmitRequest{Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	_, sub, _ := c.subscribe(0)
	if sub == nil {
		t.Fatal("no live subscription")
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Info().State != "completed" {
		t.Fatalf("campaign state %q with stalled consumer", c.Info().State)
	}
	// The subscriber channel must be closed (shed) with the lagged flag.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, open := <-sub.ch:
			if !open {
				if !sub.lagged {
					t.Fatal("shed subscriber not marked lagged")
				}
				return
			}
		case <-deadline:
			t.Fatal("slow subscriber never shed")
		}
	}
}

// TestShardedServicesUnion runs the same spec as three shard campaigns on
// three independent services (the multi-process deployment shape) and
// checks the merged union of their rows is byte-identical to the
// unsharded artifact — 6 jobs over 3 even shards, then over 4 uneven
// shards (2/2/1/1).
func TestShardedServicesUnion(t *testing.T) {
	spec, wantCSV, wantJSON := localArtifacts(t, testSpecJSON, 2)

	for _, count := range []int{3, 4} { // 4 does not divide 6: uneven
		var union []runner.JobResult
		for idx := 0; idx < count; idx++ {
			s := newTestService(t, t.TempDir(), 2)
			c, err := s.Submit(SubmitRequest{
				Spec:  json.RawMessage(testSpecJSON),
				Shard: runner.Shard{Index: idx, Count: count},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := c.Info(); st.State != "completed" {
				t.Fatalf("shard %d/%d state %q", idx, count, st.State)
			}
			union = append(union, c.Result().Jobs...)
			s.Close()
		}
		merged := runner.MergeRows(spec, union)
		var cb, jb bytes.Buffer
		if err := merged.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := merged.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cb.Bytes(), wantCSV) {
			t.Errorf("count=%d: sharded union CSV differs from unsharded", count)
		}
		if !bytes.Equal(jb.Bytes(), wantJSON) {
			t.Errorf("count=%d: sharded union JSON differs from unsharded", count)
		}
	}
}

// TestTerminalWriteFailureFails pins the durability rule for the last
// write: a campaign whose "completed" event cannot reach the journal ends
// failed, not completed. Every row is recovered, so nothing fresh is
// appended and only the terminal write meets the closed file.
func TestTerminalWriteFailureFails(t *testing.T) {
	spec, _, _ := localArtifacts(t, testSpecJSON, 1)
	full, err := runner.Run(spec, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, t.TempDir(), 1)
	defer s.Close()
	hdr := journalHeader{V: journalVersion, ID: "cfeedbeef", Spec: spec, Total: len(full.Jobs)}
	path := filepath.Join(s.opts.DataDir, hdr.ID, journalName)
	j, err := createJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(map[int]runner.JobResult, len(full.Jobs))
	for _, r := range full.Jobs {
		if err := j.AppendRow(r); err != nil {
			t.Fatal(err)
		}
		recovered[r.Index] = r
	}
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}

	c := s.newCampaign(hdr.ID, hdr)
	c.rows = append(c.rows, full.Jobs...)
	c.journaled = len(full.Jobs)
	s.register(c)
	s.start(c, j, recovered)
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info := c.Info(); info.State != "failed" || !strings.HasPrefix(info.Error, "journal: ") {
		t.Fatalf("campaign with a failed terminal write: %+v", info)
	}
}

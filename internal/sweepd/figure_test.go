package sweepd

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"padc/internal/exp"
	"padc/internal/runner"
)

// TestFigureThroughSweepd submits a paper figure's spec (Figure 24 at a
// tiny scale: 8 grid machines and their alone baselines) to the service,
// streams its rows over HTTP, merges and reduces them, and requires the
// table the in-process run renders, byte for byte.
func TestFigureThroughSweepd(t *testing.T) {
	fig := exp.Fig24(exp.Scale{Insts: 20_000, Mixes4: 1})
	local, err := runner.Run(fig.Spec, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range local.Jobs {
		if !j.IsBaseline() && j.Speedup == nil {
			t.Fatalf("in-process row %s has no speedups", j.Key)
		}
	}
	want := fig.Reduce(local).String()

	s := newTestService(t, t.TempDir(), 2)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec, err := json.Marshal(fig.Spec)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Submit(ctx, SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	var rows []runner.JobResult
	var final string
	err = cl.StreamRows(ctx, info.ID, 0, func(ev RowEvent) error {
		if ev.Row != nil {
			rows = append(rows, *ev.Row)
		}
		if ev.Done {
			final = ev.State
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != "completed" || len(rows) != len(local.Jobs) {
		t.Fatalf("campaign ended %q with %d rows, want completed with %d", final, len(rows), len(local.Jobs))
	}
	if got := fig.Reduce(runner.MergeRows(fig.Spec, rows)).String(); got != want {
		t.Errorf("sweepd table differs from the in-process run:\n%s\nwant:\n%s", got, want)
	}
}

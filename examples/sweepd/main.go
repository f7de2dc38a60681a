// Sweepd demonstrates the sweep campaign service end to end, entirely
// in-process: it starts a Service over a temporary data directory,
// submits a small policy × mix campaign through the HTTP API, streams
// the result rows live as jobs finish, and then interrupts the service
// mid-campaign to show crash recovery — a second Service over the same
// data directory resumes from the write-ahead journal, reuses every
// journaled row, and converges on an artifact byte-identical to an
// uninterrupted in-process sweep.
//
// The same flow works across real processes: `padcsweepd serve -data
// DIR` runs the daemon, `padcsweepd submit -spec spec.json -wait`
// (or `padcsim -sweep spec.json -sweep-remote URL`) drives it, and
// `kill -9` + restart exercises exactly the resume path shown here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http/httptest"
	"os"
	"time"

	"padc"
	"padc/internal/sweepd"
)

const specJSON = `{
	"name": "policies-vs-mixes",
	"seed": 42,
	"cores": 2,
	"insts": 20000,
	"policies": ["demand-first", "aps", "padc"],
	"workloads": [["swim", "art"]],
	"mixes": 3
}`

func main() {
	dir, err := os.MkdirTemp("", "sweepd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// The golden artifact: the same spec run in-process (padcsim -sweep).
	spec, err := padc.ParseSweepSpec([]byte(specJSON))
	if err != nil {
		log.Fatal(err)
	}
	golden, err := padc.Sweep(spec, padc.SweepOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	var want bytes.Buffer
	if err := golden.WriteCSV(&want); err != nil {
		log.Fatal(err)
	}

	// Start the service and submit the campaign over HTTP.
	svc, err := sweepd.NewService(sweepd.ServiceOptions{
		DataDir: dir, Workers: 2, Resume: true,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	cl, err := sweepd.NewClient(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	info, err := cl.Submit(ctx, sweepd.SubmitRequest{Spec: json.RawMessage(specJSON)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted campaign %s: %d jobs\n", info.ID, info.Total)

	// Interrupt the service once a couple of rows are journaled. Close is
	// a graceful interruption: no terminal journal event is written, which
	// marks the campaign as resumable.
	cam, ok := svc.Campaign(info.ID)
	if !ok {
		log.Fatal("campaign not registered")
	}
	for cam.Info().Done < 2 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	svc.Close()
	fmt.Printf("interrupted the service mid-campaign\n")

	// A fresh service over the same data directory replays the journal and
	// resumes: journaled rows are reused, only the remainder re-executes.
	svc2, err := sweepd.NewService(sweepd.ServiceOptions{
		DataDir: dir, Workers: 2, Resume: true,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc2.Close()
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	cl2, err := sweepd.NewClient(srv2.URL)
	if err != nil {
		log.Fatal(err)
	}

	// Stream the resumed campaign's rows: the journaled backlog arrives
	// first, then live rows as the remainder executes.
	err = cl2.StreamRows(ctx, info.ID, 0, func(ev sweepd.RowEvent) error {
		switch {
		case ev.Row != nil:
			fmt.Printf("  row %2d  %-40s cycles=%d\n", ev.Seq, ev.Row.Key, ev.Row.Cycles)
		case ev.Done:
			fmt.Printf("campaign %s\n", ev.State)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	final, err := cl2.Wait(ctx, info.ID, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d/%d rows, %d reused from the journal\n",
		final.Done, final.Total, final.Reused)

	// The artifact served after the interruption is byte-identical to the
	// uninterrupted in-process run.
	got, err := cl2.Artifact(ctx, info.ID, "csv")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		log.Fatalf("artifact differs from the in-process sweep: %d bytes, want %d", len(got), want.Len())
	}
	fmt.Printf("artifact matches in-process sweep: true (%d bytes)\n", len(got))
}

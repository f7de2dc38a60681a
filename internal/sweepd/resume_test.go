package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"padc/internal/runner"
)

// resumeSpecJSON expands to 12 jobs — enough that an interruption
// plausibly lands mid-flight and the resumed remainder is non-trivial.
const resumeSpecJSON = `{
	"name": "resume",
	"seed": 5,
	"cores": 2,
	"insts": 8000,
	"policies": ["demand-first", "aps", "padc"],
	"workloads": [["swim", "libquantum"]],
	"mixes": 3
}`

// TestCrashResumeByteIdentical is the campaign-resume contract (and the
// PR's acceptance criterion in miniature): a journal interrupted
// mid-flight — including a torn final line — resumed at several worker
// counts produces CSV and JSON artifacts byte-identical to an
// uninterrupted single-process run. The interrupted journal is
// fabricated from real rows so the cut point is deterministic.
func TestCrashResumeByteIdentical(t *testing.T) {
	spec, wantCSV, wantJSON := localArtifacts(t, resumeSpecJSON, 1)
	full, err := runner.Run(spec, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		keep    int // journaled rows before the "crash"
		torn    bool
		workers int
	}{
		{"early-crash", 2, true, 1},
		{"mid-crash", 5, false, 2},
		{"late-crash-torn", 9, true, 4},
		{"nothing-journaled", 0, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id := "cdeadbeef"
			hdr := journalHeader{
				V: journalVersion, ID: id, Spec: spec, Total: len(full.Jobs), Workers: tc.workers,
			}
			path := filepath.Join(dir, id, journalName)
			j, err := createJournal(path, hdr)
			if err != nil {
				t.Fatal(err)
			}
			// Journal the first keep rows in completion order, then crash:
			// optionally a torn half-written row with no newline.
			for i := 0; i < tc.keep; i++ {
				if err := j.AppendRow(full.Jobs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.torn {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString(`{"row":{"index":11,"key":"policy=...`); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			s := newTestService(t, dir, tc.workers)
			defer s.Close()
			c, ok := s.Campaign(id)
			if !ok {
				t.Fatal("interrupted campaign not recovered")
			}
			if err := c.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			info := c.Info()
			if info.State != "completed" {
				t.Fatalf("resumed campaign state %q (%+v)", info.State, info)
			}
			if info.Reused != tc.keep {
				t.Errorf("reused %d journaled rows, want %d", info.Reused, tc.keep)
			}

			res := c.Result()
			var cb, jb bytes.Buffer
			if err := res.WriteCSV(&cb); err != nil {
				t.Fatal(err)
			}
			if err := res.WriteJSON(&jb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cb.Bytes(), wantCSV) {
				t.Errorf("resumed CSV differs from uninterrupted run")
			}
			if !bytes.Equal(jb.Bytes(), wantJSON) {
				t.Errorf("resumed JSON differs from uninterrupted run")
			}

			// The repaired journal must now be terminal and fully replayable:
			// a second restart loads the completed campaign with every row.
			s.Close()
			s2 := newTestService(t, dir, 1)
			defer s2.Close()
			c2, ok := s2.Campaign(id)
			if !ok {
				t.Fatal("completed campaign lost on second restart")
			}
			if got := c2.Info(); got.State != "completed" || got.Done != len(full.Jobs) {
				t.Fatalf("second restart: %+v", got)
			}
			var cb2 bytes.Buffer
			if err := c2.Result().WriteCSV(&cb2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cb2.Bytes(), wantCSV) {
				t.Error("artifact drifted across restart of a completed campaign")
			}
		})
	}
}

// TestLiveInterruptResume exercises the real shutdown path: a running
// service is Closed mid-campaign (graceful interruption, no terminal
// journal event), then a fresh service over the same data directory
// auto-resumes and finishes with a byte-identical artifact.
func TestLiveInterruptResume(t *testing.T) {
	_, wantCSV, _ := localArtifacts(t, resumeSpecJSON, 1)

	dir := t.TempDir()
	s := newTestService(t, dir, 1)
	c, err := s.Submit(SubmitRequest{Spec: json.RawMessage(resumeSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt once some (ideally not all) rows are journaled.
	deadline := time.After(60 * time.Second)
	for c.Info().Done < 2 {
		select {
		case <-deadline:
			t.Fatal("campaign made no progress")
		case <-time.After(time.Millisecond):
		}
	}
	s.Close()
	interrupted := c.Info()
	t.Logf("interrupted at %d/%d rows (state %s)", interrupted.Done, interrupted.Total, interrupted.State)

	s2 := newTestService(t, dir, 3)
	defer s2.Close()
	c2, ok := s2.Campaign(c.ID)
	if !ok {
		t.Fatal("interrupted campaign not found after restart")
	}
	if err := c2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	info := c2.Info()
	if info.State != "completed" || info.Done != info.Total {
		t.Fatalf("resumed campaign: %+v", info)
	}
	// Every row journaled before the interruption must have been reused,
	// not re-executed (if the campaign happened to finish before Close,
	// the restart just loads it and Reused stays 0).
	if interrupted.State == "running" && info.Reused == 0 && interrupted.Done < interrupted.Total {
		t.Errorf("resume re-executed all %d journaled rows", interrupted.Done)
	}
	var cb bytes.Buffer
	if err := c2.Result().WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), wantCSV) {
		t.Error("live-interrupted resume produced a different CSV artifact")
	}
}

// TestHeaderlessJournalSkipped covers a crash inside createJournal,
// before the header line was synced: an empty journal and a header with
// no newline. Submit never returned those ids, so the service starts
// without them (leaving their directories in place) instead of refusing
// the whole data directory.
func TestHeaderlessJournalSkipped(t *testing.T) {
	dir := t.TempDir()
	hdr := testHeader(2)
	j, err := createJournal(filepath.Join(dir, hdr.ID, journalName), hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.AppendRow(row(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendEvent("completed", ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	torn := hdr
	torn.ID = "c00000cc"
	tornHeader, _ := json.Marshal(torn)
	for id, content := range map[string][]byte{"c00000bb": nil, torn.ID: tornHeader} {
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, journalName), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestService(t, dir, 1)
	defer s.Close()
	list := s.List()
	if len(list) != 1 || list[0].ID != hdr.ID || list[0].State != "completed" {
		t.Fatalf("campaigns after recovery: %+v", list)
	}
	for _, id := range []string{"c00000bb", torn.ID} {
		if _, err := os.Stat(filepath.Join(dir, id, journalName)); err != nil {
			t.Errorf("headerless journal %s removed: %v", id, err)
		}
	}
}

// TestCrashAtEveryJournalCut crashes a telemetry campaign at every point
// its journal can end: each line boundary, each line's last byte before
// the newline (a record written without its newline), and one mid-line
// point. Each prefix restarts in a fresh data directory. A cut inside the
// header leaves the service up without the campaign; every other cut
// resumes to completed with CSV, JSON and /telemetry bytes equal to the
// uninterrupted run's.
func TestCrashAtEveryJournalCut(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, dir, 2)
	c, err := s.Submit(SubmitRequest{Spec: json.RawMessage(testSpecJSON), Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := campaignBytes(t, s, c.ID)
	s.Close()
	entries, err := os.ReadDir(filepath.Join(dir, c.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != journalName {
		t.Fatalf("campaign directory holds %v, want only %s", entries, journalName)
	}
	journal, err := os.ReadFile(filepath.Join(dir, c.ID, journalName))
	if err != nil {
		t.Fatal(err)
	}

	// Rows land in the order the two workers finish their jobs, which
	// races, so the offsets of the cuts would change from run to run. The
	// journal's rows are laid out again in two fixed completion orders the
	// pool writes, and each order is cut; an offset both orders share ends
	// with the same rows durable and is tested once.
	headerEnd := bytes.IndexByte(journal, '\n') + 1
	lines := bytes.SplitAfter(journal[headerEnd:], []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	rows := map[int][]byte{}
	for _, l := range lines[:len(lines)-1] {
		var rec struct {
			Row *struct {
				Index int `json:"index"`
			} `json:"row"`
		}
		if err := json.Unmarshal(l, &rec); err != nil || rec.Row == nil {
			t.Fatalf("journal line %q is not a row (%v)", l, err)
		}
		rows[rec.Row.Index] = l
	}
	var (
		cuts     []int
		journals = map[int][]byte{}
	)
	for _, order := range [][]int{{1, 0, 2, 3, 4, 5}, {1, 2, 0, 4, 3, 5}} {
		if len(order) != len(rows) {
			t.Fatalf("journal holds %d rows, want %d", len(rows), len(order))
		}
		j := append([]byte(nil), journal[:headerEnd]...)
		for _, i := range order {
			j = append(j, rows[i]...)
		}
		j = append(j, lines[len(lines)-1]...)
		at := []int{0}
		for i, b := range j {
			if b == '\n' {
				at = append(at, i, i+1) // the line without, then with, its newline
			}
		}
		second := headerEnd + bytes.IndexByte(j[headerEnd:], '\n') + 1
		at = append(at, second+(bytes.IndexByte(j[second:], '\n'))/2)
		for _, cut := range at {
			if _, seen := journals[cut]; !seen {
				cuts = append(cuts, cut)
				journals[cut] = j
			}
		}
	}

	for _, cut := range cuts {
		journal := journals[cut]
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			d := t.TempDir()
			if err := os.MkdirAll(filepath.Join(d, c.ID), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, c.ID, journalName), journal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s := newTestService(t, d, 2)
			defer s.Close()
			rc, ok := s.Campaign(c.ID)
			if cut < headerEnd {
				if ok || len(s.List()) != 0 {
					t.Fatalf("campaign with a cut header recovered: %+v", s.List())
				}
				return
			}
			if !ok {
				t.Fatal("campaign not recovered")
			}
			if err := rc.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if info := rc.Info(); info.State != "completed" {
				t.Fatalf("resumed campaign: %+v", info)
			}
			got := campaignBytes(t, s, c.ID)
			for i, name := range []string{"CSV", "JSON", "/telemetry"} {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s differs from the uninterrupted run's", name)
				}
			}
		})
	}
}

// campaignBytes fetches a completed campaign's CSV and JSON artifacts and
// its /telemetry NDJSON over HTTP.
func campaignBytes(t *testing.T, s *Service, id string) [3][]byte {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out [3][]byte
	for i, kind := range []string{"csv", "json"} {
		if out[i], err = cl.Artifact(ctx, id, kind); err != nil {
			t.Fatal(err)
		}
	}
	if out[2], err = cl.Telemetry(ctx, id, false); err != nil {
		t.Fatal(err)
	}
	return out
}

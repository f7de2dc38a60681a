package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestKillDashNineResume is the PR's acceptance criterion against the
// real binary: build cmd/padcsweepd, start it as a separate process,
// submit a campaign over HTTP, SIGKILL the server mid-campaign (no
// graceful shutdown — the journal's flushed-per-row contract is all
// that survives), restart it over the same data directory, and verify
// the resumed campaign's artifacts are byte-identical to an
// uninterrupted in-process `padcsim -sweep` run.
func TestKillDashNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary")
	}
	_, wantCSV, wantJSON := localArtifacts(t, resumeSpecJSON, 1)

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "padcsweepd")
	build := exec.Command("go", "build", "-o", bin, "padc/cmd/padcsweepd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building padcsweepd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")

	// startServer launches the daemon on a fresh port, waits for the
	// atomically-written addr file to learn where it bound, then waits
	// for /readyz: the addr file is written before journal replay, and
	// every other route answers 503 until replay finishes.
	startServer := func(t *testing.T) (*exec.Cmd, *Client) {
		t.Helper()
		addrFile := filepath.Join(tmp, "addr")
		os.Remove(addrFile)
		cmd := exec.Command(bin, "serve",
			"-addr", "127.0.0.1:0", "-data", dataDir, "-jobs", "2", "-addr-file", addrFile)
		var logs bytes.Buffer
		cmd.Stdout, cmd.Stderr = &logs, &logs
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			if t.Failed() {
				t.Logf("server logs:\n%s", logs.String())
			}
		})
		deadline := time.Now().Add(30 * time.Second)
		for {
			if data, err := os.ReadFile(addrFile); err == nil {
				addr := strings.TrimSpace(string(data))
				cl, err := NewClient("http://" + addr)
				if err != nil {
					t.Fatal(err)
				}
				for {
					resp, err := http.Get("http://" + addr + "/readyz")
					if err == nil {
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							return cmd, cl
						}
					}
					if time.Now().After(deadline) {
						t.Fatalf("server never became ready:\n%s", logs.String())
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never wrote %s:\n%s", addrFile, logs.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx := context.Background()
	srv1, cl1 := startServer(t)
	info, err := cl1.Submit(ctx, SubmitRequest{Spec: json.RawMessage(resumeSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least two journaled rows, then SIGKILL — no signal
	// handler runs, no terminal event is written, buffered state is gone.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := cl1.Info(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign made no progress: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv1.Wait()

	// Restart over the same data directory: the journal replays and the
	// campaign resumes to completion.
	_, cl2 := startServer(t)
	final, err := cl2.Wait(ctx, info.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "completed" || final.Done != final.Total {
		t.Fatalf("resumed campaign: %+v", final)
	}

	csv, err := cl2.Artifact(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	js, err := cl2.Artifact(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("post-SIGKILL CSV differs from uninterrupted in-process sweep (%d vs %d bytes)",
			len(csv), len(wantCSV))
	}
	if !bytes.Equal(js, wantJSON) {
		t.Errorf("post-SIGKILL JSON differs from uninterrupted in-process sweep (%d vs %d bytes)",
			len(js), len(wantJSON))
	}
}

package sweepd

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"padc/internal/runner"
	"padc/internal/telemetry/flight"
)

func testHeader(total int) journalHeader {
	return journalHeader{
		V:  journalVersion,
		ID: "c00000aa",
		Spec: runner.Spec{
			Name: "jtest", Seed: 1, Cores: 1, Insts: 2000,
			Policies: []string{"demand-first"}, Mixes: total,
		},
		Total: total,
	}
}

func row(idx int, key string) runner.JobResult {
	return runner.JobResult{
		Index: idx, Key: key, Seed: uint64(idx), Cycles: uint64(1000 + idx),
		IPC: []float64{0.5}, Telemetry: map[string]float64{"core0/mpki": 1.25},
	}
}

// TestJournalRoundTrip pins the append/recover cycle: header, rows and a
// terminal event survive exactly, including float-valued telemetry.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c00000aa", journalName)
	j, err := createJournal(path, testHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
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

	rec, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.header.ID != "c00000aa" || rec.header.Total != 4 || rec.torn {
		t.Fatalf("header mangled: %+v torn=%v", rec.header, rec.torn)
	}
	if rec.event != "completed" {
		t.Fatalf("event = %q, want completed", rec.event)
	}
	if len(rec.rows) != 3 {
		t.Fatalf("recovered %d rows, want 3", len(rec.rows))
	}
	got := rec.rows[1]
	if got.Index != 1 || got.Cycles != 1001 || got.IPC[0] != 0.5 || got.Telemetry["core0/mpki"] != 1.25 {
		t.Fatalf("row mangled: %+v", got)
	}
}

// TestJournalTornTail is the crash contract: a partial final append (no
// newline) and an undecodable tail are both dropped, keeping the intact
// prefix.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		tail string // appended raw after two good rows
		rows int
	}{
		{"torn-no-newline", `{"row":{"index":2,"ke`, 2},
		{"garbage-line", "\x00\x01binarygarbage\n", 2},
		{"torn-then-garbage", "{\"row\":{\"index\":9}}\n{\"row\":{\"ind", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name, journalName)
			j, err := createJournal(path, testHeader(16))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := j.AppendRow(row(i, "k")); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			rec, err := readJournal(path)
			if err != nil {
				t.Fatalf("torn journal failed recovery: %v", err)
			}
			if !rec.torn {
				t.Error("torn tail not flagged")
			}
			if len(rec.rows) != tc.rows {
				t.Fatalf("recovered %d rows, want %d", len(rec.rows), tc.rows)
			}
			if rec.event != "" {
				t.Fatalf("interrupted journal reports terminal event %q", rec.event)
			}
		})
	}
}

// TestJournalDedupAndForeignRows: duplicate indexes keep the first copy,
// and rows outside the campaign's shard are dropped.
func TestJournalDedupAndForeignRows(t *testing.T) {
	hdr := testHeader(8)
	hdr.Shard = runner.Shard{Index: 0, Count: 2} // owns even indexes
	path := filepath.Join(t.TempDir(), "c", journalName)
	j, err := createJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	first := row(2, "first")
	dup := row(2, "dup")
	foreign := row(3, "odd-not-owned")
	for _, r := range []runner.JobResult{first, dup, foreign, row(4, "ok")} {
		if err := j.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.rows) != 2 || rec.rows[0].Key != "first" || rec.rows[1].Index != 4 {
		t.Fatalf("dedup/ownership filter broken: %+v", rec.rows)
	}
}

// TestJournalRejects covers unrecoverable journals: empty file, bad
// header, wrong version.
func TestJournalRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, content := range map[string]string{
		"empty":       "",
		"bad-header":  "not json\n",
		"bad-version": `{"v":99,"id":"x","spec":{},"shard":{"index":0,"count":0},"total":1}` + "\n",
	} {
		if _, err := readJournal(write(name, content)); err == nil {
			t.Errorf("%s journal accepted", name)
		}
	}
	if _, err := readJournal(filepath.Join(dir, "missing")); err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("missing journal error = %v", err)
	}
}

// TestJournalFlightRidesRow pins the telemetry line format: the flight
// roll-up sits next to the row object, whose bytes are those of the same
// row journaled without telemetry, and recovery reads the records back
// under the rows' first-wins and shard-ownership rules.
func TestJournalFlightRidesRow(t *testing.T) {
	hdr := testHeader(8)
	hdr.Shard = runner.Shard{Index: 0, Count: 2} // owns even indexes
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain", journalName)
	flightPath := filepath.Join(dir, "flight", journalName)
	plain, err := createJournal(plainPath, hdr)
	if err != nil {
		t.Fatal(err)
	}
	withFlight, err := createJournal(flightPath, hdr)
	if err != nil {
		t.Fatal(err)
	}
	rows := []runner.JobResult{row(2, "first"), row(2, "dup"), row(3, "foreign"), row(4, "ok")}
	for i, r := range rows {
		if err := plain.AppendRow(r); err != nil {
			t.Fatal(err)
		}
		r.Flight = &flight.Summary{EpochCycles: uint64(100 + i), Channels: 1, Banks: 8}
		if err := withFlight.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range []*Journal{plain, withFlight} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	plainData, _ := os.ReadFile(plainPath)
	flightData, _ := os.ReadFile(flightPath)
	plainLines := strings.Split(string(plainData), "\n")
	flightLines := strings.Split(string(flightData), "\n")
	for i := 1; i <= len(rows); i++ {
		want := strings.TrimSuffix(plainLines[i], "}") + `,"flight":{`
		if !strings.HasPrefix(flightLines[i], want) {
			t.Fatalf("line %d:\n got %s\nwant prefix %s", i, flightLines[i], want)
		}
	}

	rec, err := readJournal(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.rows) != 2 || rec.rows[0].Key != "first" || rec.rows[1].Index != 4 {
		t.Fatalf("rows: %+v", rec.rows)
	}
	for _, r := range rec.rows {
		if r.Flight != nil {
			t.Fatalf("row %d kept its flight summary in memory", r.Index)
		}
	}
	if len(rec.flights) != 2 ||
		rec.flights[0].Key != "first" || rec.flights[0].Flight.EpochCycles != 100 ||
		rec.flights[1].Index != 4 || rec.flights[1].Flight.EpochCycles != 103 {
		t.Fatalf("flights: %+v", rec.flights)
	}
}

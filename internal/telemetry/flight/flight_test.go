package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"padc/internal/dram"
	"padc/internal/telemetry/probe"
)

// TestRecorderBounds pins the flight-recorder memory contract: an
// arbitrarily long run retains at most MaxEpochs epochs (the most recent
// ones), lifetime totals keep accumulating across evictions, and a
// steady-state rotation allocates nothing once the ring is full.
func TestRecorderBounds(t *testing.T) {
	const maxEpochs, rotations = 8, 1000
	r := New(Options{EpochCycles: 100, MaxEpochs: maxEpochs})
	r.Configure(1, 4)
	now := uint64(0)
	for i := 0; i < rotations; i++ {
		r.Observe(probe.Event{Kind: probe.Issue, Bank: int16(i % 4), Row: dram.RowHit, Pref: i%2 == 0})
		now += 100
		r.Rotate(now)
	}
	retained, completed, evicted := r.Retained()
	if retained != maxEpochs || completed != rotations || evicted != rotations-maxEpochs {
		t.Fatalf("Retained() = (%d, %d, %d), want (%d, %d, %d)",
			retained, completed, evicted, maxEpochs, rotations, rotations-maxEpochs)
	}
	eps := r.Epochs()
	if len(eps) != maxEpochs {
		t.Fatalf("Epochs() returned %d epochs, ring bound is %d", len(eps), maxEpochs)
	}
	for i, ep := range eps {
		if want := rotations - maxEpochs + i; ep.Index != want {
			t.Fatalf("epoch %d has index %d, want %d (most-recent history must survive)", i, ep.Index, want)
		}
	}
	var hits uint64
	for _, c := range r.Summary().Totals {
		hits += c.Hits
	}
	if hits != rotations {
		t.Fatalf("lifetime totals lost evicted epochs: %d hits, want %d", hits, rotations)
	}

	// Steady state must not grow: rotations with the ring full reuse its
	// slots (rule-win deltas are absent here, so zero allocations).
	allocs := testing.AllocsPerRun(100, func() {
		r.Observe(probe.Event{Kind: probe.Issue, Bank: 1, Row: dram.RowConflict, Opens: 1, Closes: 1})
		now += 100
		r.Rotate(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state rotation allocates %.1f objects per epoch; ring slots must be reused", allocs)
	}
}

// TestRecorderRuleWinDeltas checks per-epoch attribution: the recorder
// samples cumulative counters at each rotation and stores the deltas.
func TestRecorderRuleWinDeltas(t *testing.T) {
	r := New(Options{EpochCycles: 10, MaxEpochs: 4})
	r.Configure(1, 1)
	cum := []uint64{0, 0}
	r.AttachRules(0, []string{"rowhit", "fcfs"}, func() []uint64 {
		return append([]uint64(nil), cum...)
	})
	cum = []uint64{5, 2}
	r.Rotate(10)
	cum = []uint64{9, 2}
	r.Rotate(20)
	eps := r.Epochs()
	if len(eps) != 2 {
		t.Fatalf("got %d epochs, want 2", len(eps))
	}
	if got := eps[0].RuleWins[0]; got[0] != 5 || got[1] != 2 {
		t.Fatalf("epoch 0 deltas = %v, want [5 2]", got)
	}
	if got := eps[1].RuleWins[0]; got[0] != 4 || got[1] != 0 {
		t.Fatalf("epoch 1 deltas = %v, want [4 0]", got)
	}
	if rules := r.Summary().Rules; len(rules) != 2 || rules[0] != "rowhit" {
		t.Fatalf("summary rules = %v", rules)
	}
}

// TestRecorderNilAndEmptyRotate covers the disabled paths: a nil
// recorder no-ops everywhere, and a rotation with no elapsed cycles
// (run ending exactly on a boundary) adds no epoch.
func TestRecorderNilAndEmptyRotate(t *testing.T) {
	var nr *Recorder
	nr.Configure(1, 8)
	for _, k := range []probe.Kind{probe.Issue, probe.Refresh, probe.RefreshBlocked} {
		nr.Observe(probe.Event{Kind: k, Pref: true, Opens: 1, Closes: 1})
	}
	nr.Rotate(100)
	if nr.Summary() != nil || nr.Epochs() != nil || nr.EpochCycles() != 0 {
		t.Fatal("nil recorder must report nothing")
	}
	var b bytes.Buffer
	if err := nr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}

	r := New(Options{})
	r.Configure(2, 2)
	r.Rotate(50)
	r.Rotate(50) // same cycle: no second epoch
	if got, _, _ := r.Retained(); got != 1 {
		t.Fatalf("duplicate-boundary rotate created %d epochs, want 1", got)
	}
}

// TestRecorderExportShapes sanity-checks the three exporters: the CSV
// has one row per (epoch, channel, bank) plus a header, the JSONL lines
// decode back into epochs, and the Chrome counters use the channel/bank
// pid/tid convention.
func TestRecorderExportShapes(t *testing.T) {
	r := New(Options{EpochCycles: 10, MaxEpochs: 4})
	r.Configure(2, 2)
	r.Observe(probe.Event{Kind: probe.Issue, Chan: 1, Bank: 1, Row: dram.RowConflict, Opens: 1, Closes: 2})
	r.Rotate(10)
	r.Observe(probe.Event{Kind: probe.Refresh, Closes: 1})
	r.Observe(probe.Event{Kind: probe.RefreshBlocked})
	r.Rotate(20)

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if want := 1 + 2*2*2; len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), want, csv.String())
	}
	if !strings.HasPrefix(lines[0], "epoch,start,end,chan,bank,") {
		t.Fatalf("CSV header malformed: %q", lines[0])
	}

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(jsonl.String()))
	var eps []Epoch
	for dec.More() {
		var ep Epoch
		if err := dec.Decode(&ep); err != nil {
			t.Fatalf("JSONL line does not decode: %v", err)
		}
		eps = append(eps, ep)
	}
	if len(eps) != 2 || eps[1].Cells[0].Refreshes != 1 || eps[1].Cells[0].RefreshBlocked != 1 {
		t.Fatalf("JSONL round-trip lost data: %+v", eps)
	}
	// The refresh precharged an open row: that close must be booked.
	if eps[1].Cells[0].Closes != 1 {
		t.Fatalf("refresh close not booked: %+v", eps[1].Cells[0])
	}

	var emitted []string
	r.ChromeCounters(func(format string, args ...any) {
		emitted = append(emitted, format)
	})
	if want := 2 * 2 * 2 * 2; len(emitted) != want { // epochs × chans × banks × 2 tracks
		t.Fatalf("ChromeCounters emitted %d events, want %d", len(emitted), want)
	}
}

// TestRecorderGeometryPanics pins the misuse contract.
func TestRecorderGeometryPanics(t *testing.T) {
	r := New(Options{})
	r.Configure(1, 8)
	r.Configure(1, 8) // same geometry: fine
	for _, tc := range []func(){
		func() { r.Configure(2, 8) },
		func() { New(Options{}).Configure(0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry did not panic")
				}
			}()
			tc()
		}()
	}
}

// TestRecorderBusBusyDeltas checks the bandwidth gauge: an attached bus
// sampler yields per-epoch busy-cycle deltas and a trailing heatmap
// column, while unattached recorders keep the historical export format.
func TestRecorderBusBusyDeltas(t *testing.T) {
	r := New(Options{EpochCycles: 10, MaxEpochs: 4})
	r.Configure(2, 1)
	cum := []uint64{0, 0}
	for ch := 0; ch < 2; ch++ {
		ch := ch
		r.AttachBus(ch, func() uint64 { return cum[ch] })
	}
	cum = []uint64{6, 10}
	r.Rotate(10)
	cum = []uint64{9, 10}
	r.Rotate(20)

	eps := r.Epochs()
	if got := eps[0].BusBusy; len(got) != 2 || got[0] != 6 || got[1] != 10 {
		t.Fatalf("epoch 0 bus deltas = %v, want [6 10]", got)
	}
	if got := eps[1].BusBusy; got[0] != 3 || got[1] != 0 {
		t.Fatalf("epoch 1 bus deltas = %v, want [3 0]", got)
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if !strings.HasSuffix(lines[0], ",bus_busy") {
		t.Fatalf("attached recorder must export the bus_busy column: %q", lines[0])
	}
	// Channel 0's first-epoch row ends with its 6 busy cycles.
	if !strings.HasSuffix(lines[1], ",6") {
		t.Fatalf("bus_busy value missing from heatmap row: %q", lines[1])
	}

	// The summary's ring copies the deltas.
	if got := r.Summary().Ring[0].BusBusy; len(got) != 2 || got[0] != 6 {
		t.Fatalf("summary ring bus deltas = %v", got)
	}

	// Without a sampler the column (and epoch field) stays absent.
	plain := New(Options{EpochCycles: 10})
	plain.Configure(1, 1)
	plain.Rotate(10)
	if plain.Epochs()[0].BusBusy != nil {
		t.Fatal("unattached recorder recorded bus deltas")
	}
	csv.Reset()
	if err := plain.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "bus_busy") {
		t.Fatalf("unattached recorder must keep the historical header: %q", csv.String())
	}
}

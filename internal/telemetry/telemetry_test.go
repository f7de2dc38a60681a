package telemetry

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"padc/internal/dram"
	"padc/internal/telemetry/probe"
)

func TestNilTelemetryIsNoOp(t *testing.T) {
	var tel *Telemetry
	tel.CounterFunc("y", func() uint64 { return 1 })
	tel.GaugeFunc("z", func() float64 { return 1 })
	h := tel.Histogram("h", []uint64{10})
	h.Observe(5)
	if h.Total() != 0 {
		t.Fatal("nil histogram observed")
	}
	tel.Emit(Event{Kind: EvDrop})
	tel.Sample(100)
	if tel.EpochCycles() != 0 || len(tel.Events()) != 0 {
		t.Fatal("nil telemetry not inert")
	}
	if s := tel.SeriesData(); len(s.Rows) != 0 {
		t.Fatal("nil series has rows")
	}
}

func TestRegistryAndSampling(t *testing.T) {
	tel := New(Options{EpochCycles: 100})
	var drops, ext uint64
	tel.CounterFunc("memctrl0/drops", func() uint64 { return drops })
	tel.CounterFunc("core0/retired", func() uint64 { return ext })
	occ := 3.0
	tel.GaugeFunc("memctrl0/occupancy", func() float64 { return occ })

	drops += 5
	ext = 40
	tel.Sample(100)
	drops++
	ext = 90
	occ = 7
	tel.Sample(200)

	s := tel.SeriesData()
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	if got := s.Column("memctrl0/drops"); got[0] != 5 || got[1] != 1 {
		t.Fatalf("counter deltas = %v, want [5 1]", got)
	}
	if got := s.Column("core0/retired"); got[0] != 40 || got[1] != 50 {
		t.Fatalf("counterfunc deltas = %v, want [40 50]", got)
	}
	if got := s.Column("memctrl0/occupancy"); got[0] != 3 || got[1] != 7 {
		t.Fatalf("gauge samples = %v, want [3 7]", got)
	}
	if v, ok := tel.Value("memctrl0/drops"); !ok || v != 6 {
		t.Fatalf("Value = %v,%v; want 6,true", v, ok)
	}
	if s.Column("nope") != nil {
		t.Fatal("unknown column not nil")
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	tel := New(Options{})
	tel.CounterFunc("a", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	tel.CounterFunc("a", func() uint64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	tel := New(Options{})
	h := tel.Histogram("svc", []uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	counts := h.counts
	want := []uint64{2, 2, 2}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d, want 6", h.Total())
	}
}

func TestEventRingWraps(t *testing.T) {
	tel := New(Options{EventCapacity: 4})
	for i := 0; i < 10; i++ {
		tel.Emit(Event{Cycle: uint64(i), Kind: EvEnqueue})
	}
	evs := tel.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle = %d, want %d (chronological)", i, ev.Cycle, 6+i)
		}
	}
}

func TestExporters(t *testing.T) {
	tel := New(Options{EpochCycles: 50, EventCapacity: 16})
	var drops uint64
	tel.CounterFunc("memctrl0/drops", func() uint64 { return drops })
	tel.GaugeFunc("core0/acc_estimate", func() float64 { return 0.9 })
	drops += 2
	tel.Sample(50)
	drops += 3
	tel.Sample(100)
	tel.Emit(Event{Cycle: 10, Kind: EvComplete, Core: 0, Chan: 0, Bank: 3, Line: 42, A: 72})
	tel.Emit(Event{Cycle: 20, Kind: EvDrop, Core: 1, Chan: 0, Bank: -1, Line: 43, A: 900, Pref: true})
	tel.Emit(Event{Cycle: 30, Kind: EvPromotion, Core: 1, Chan: -1, Bank: 1, A: 920000})

	var csv strings.Builder
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), csv.String())
	}
	if lines[0] != "cycle,memctrl0/drops,core0/acc_estimate" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "50,2,0.9" || lines[2] != "100,3,0.9" {
		t.Fatalf("csv rows = %q, %q", lines[1], lines[2])
	}

	var jsonl strings.Builder
	if err := tel.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(jl) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(jl))
	}
	for _, line := range jl {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
	}

	var chrome strings.Builder
	if err := tel.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("span with non-positive dur: %v", ev)
			}
		case "i":
			instants++
		}
	}
	if spans != 1 || instants != 2 {
		t.Fatalf("spans/instants = %d/%d, want 1/2", spans, instants)
	}
}

// BenchmarkEmit measures event recording into the ring.
func BenchmarkEmit(b *testing.B) {
	tel := New(Options{EventCapacity: 1 << 12})
	for i := 0; i < b.N; i++ {
		tel.Emit(Event{Cycle: uint64(i), Kind: EvEnqueue})
	}
}

func TestWraparoundOrderingInExporters(t *testing.T) {
	// Overflow a 4-slot ring and confirm both line-oriented exporters see
	// the survivors oldest-first — the overwrite must not leave the output
	// rotated to the ring's physical layout.
	tel := New(Options{EventCapacity: 4})
	// 1000-cycle spacing keeps timestamps distinct after the exporter's
	// microsecond rounding.
	for i := 0; i < 11; i++ {
		tel.Emit(Event{Cycle: uint64(1000 * (i + 1)), Kind: EvEnqueue, Core: 0, Chan: 0, Bank: int16(i % 8), Line: uint64(i)})
	}

	var jsonl strings.Builder
	if err := tel.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want the ring capacity 4", len(lines))
	}
	prev := -1
	for _, ln := range lines {
		var obj struct {
			Cycle int `json:"cycle"`
			Line  int `json:"line"`
		}
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if obj.Cycle <= prev {
			t.Fatalf("JSONL out of order: cycle %d after %d", obj.Cycle, prev)
		}
		if obj.Cycle < 8000 {
			t.Fatalf("JSONL kept overwritten event at cycle %d", obj.Cycle)
		}
		prev = obj.Cycle
	}

	var tr strings.Builder
	if err := tel.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tr.String()), &doc); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	var tss []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			tss = append(tss, ev.Ts)
		}
	}
	if len(tss) != 4 {
		t.Fatalf("trace has %d instants, want 4", len(tss))
	}
	for i := 1; i < len(tss); i++ {
		if tss[i] <= tss[i-1] {
			t.Fatalf("trace instants out of order: %v", tss)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	tel := New(Options{})
	h := tel.Histogram("memctrl0/queue_wait", []uint64{10, 100})
	for _, v := range []uint64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Sum() != 555 || h.Total() != 3 {
		t.Fatalf("sum/total = %d/%d, want 555/3", h.Sum(), h.Total())
	}
	var nilH *Histogram
	if nilH.Sum() != 0 {
		t.Fatal("nil histogram sum should be 0")
	}
}

func TestWritePrometheus(t *testing.T) {
	tel := New(Options{})
	tel.CounterFunc("memctrl0/drops", func() uint64 { return 7 })
	tel.GaugeFunc("core0/acc-estimate", func() float64 { return 0.25 })
	h := tel.Histogram("memctrl0/queue_wait", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE padc_memctrl0_drops counter\npadc_memctrl0_drops 7\n",
		"# TYPE padc_core0_acc_estimate gauge\npadc_core0_acc_estimate 0.25\n",
		"# TYPE padc_memctrl0_queue_wait histogram\n",
		`padc_memctrl0_queue_wait_bucket{le="10"} 1`,
		`padc_memctrl0_queue_wait_bucket{le="100"} 2`,
		`padc_memctrl0_queue_wait_bucket{le="+Inf"} 3`,
		"padc_memctrl0_queue_wait_sum 555",
		"padc_memctrl0_queue_wait_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}

	var nilTel *Telemetry
	b.Reset()
	if err := nilTel.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil telemetry should write nothing: err=%v out=%q", err, b.String())
	}
}

// TestObserveLowersProbeEvents pins how probe events become ring records:
// an issue that found a conflicting row adds a row-conflict record, a
// completion spans issue to fill and books arrival to fill into
// dram/service_cycles, a rank-wide refresh is one record with bank -1,
// and a refresh-blocked slot is no record at all.
func TestObserveLowersProbeEvents(t *testing.T) {
	tel := New(Options{})
	tel.Observe(probe.Event{Kind: probe.Issue, Cycle: 4, Line: 7, A: 196, Row: dram.RowConflict, Opens: 1, Closes: 1, Core: 0, Chan: 1, Bank: 3})
	tel.Observe(probe.Event{Kind: probe.Complete, Cycle: 196, Line: 7, Enqueue: 1, Issue: 4, Core: 0, Chan: 1, Bank: 3})
	for b := int16(0); b < 4; b++ {
		tel.Observe(probe.Event{Kind: probe.Refresh, Cycle: 300, A: 660, AllBank: true, Core: -1, Chan: 0, Bank: b})
	}
	tel.Observe(probe.Event{Kind: probe.RefreshBlocked, Cycle: 304, Core: -1, Chan: 0, Bank: 2})
	want := []Event{
		{Cycle: 4, Line: 7, A: 196, Kind: EvIssue, Core: 0, Chan: 1, Bank: 3},
		{Cycle: 4, Line: 7, Kind: EvRowConflict, Core: 0, Chan: 1, Bank: 3},
		{Cycle: 4, Line: 7, A: 192, Kind: EvComplete, Core: 0, Chan: 1, Bank: 3},
		{Cycle: 300, A: 660, Kind: EvRefresh, Core: -1, Chan: 0, Bank: -1},
	}
	got := tel.Events()
	if len(got) != len(want) {
		t.Fatalf("ring holds %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h := tel.svc; h.Total() != 1 || h.Sum() != 195 {
		t.Fatalf("dram/service_cycles holds %d observations summing to %d, want 1 of 195", h.Total(), h.Sum())
	}
}

// TestChromeTraceRefreshSpans checks that refreshes reach the Chrome
// trace as "X" spans lasting until the refresh completes: a per-bank
// refresh on its bank's track, an all-bank refresh (Bank -1) on its
// channel's named rank track.
func TestChromeTraceRefreshSpans(t *testing.T) {
	tel := New(Options{})
	tel.Emit(Event{Cycle: 400, Kind: EvRefresh, Core: -1, Chan: 1, Bank: 2, A: 640})
	tel.Emit(Event{Cycle: 800, Kind: EvRefresh, Core: -1, Chan: 1, Bank: -1, A: 1200})

	var tr strings.Builder
	if err := tel.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Name string            `json:"name"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tr.String()), &doc); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	type span struct {
		ts, dur  float64
		pid, tid int
	}
	var spans []span
	rankNamed := false
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "refresh":
			spans = append(spans, span{ev.Ts, ev.Dur, ev.Pid, ev.Tid})
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 1 && ev.Tid == -1:
			rankNamed = ev.Args["name"] == "rank"
		}
	}
	want := []span{
		{400 / cyclesPerMicro, 240 / cyclesPerMicro, 1, 2},
		{800 / cyclesPerMicro, 400 / cyclesPerMicro, 1, -1},
	}
	if !slices.Equal(spans, want) {
		t.Fatalf("refresh spans %v, want %v", spans, want)
	}
	if !rankNamed {
		t.Fatal("the all-bank refresh's rank track is not named")
	}
}

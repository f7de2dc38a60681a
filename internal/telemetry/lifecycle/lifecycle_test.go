package lifecycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func span(core int16, enq, issue, finish uint64, cl Class, row RowOutcome) Span {
	return Span{Enqueue: enq, Issue: issue, Finish: finish,
		Line: uint64(core)<<20 | enq, Class: cl, Row: row, Core: core}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(span(0, 1, 2, 3, ClassDemand, RowHit))
	if tr.Recorded() != 0 || tr.Cores() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	if bd := tr.Breakdown(0); bd.Spans() != 0 {
		t.Fatal("nil tracer has a breakdown")
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr.ChromeSlices(func(string, ...any) { t.Fatal("nil tracer emitted a slice") })
	if !strings.Contains(tr.BreakdownTable(), "disabled") {
		t.Fatal("nil tracer table should say disabled")
	}
}

func TestSpanMath(t *testing.T) {
	s := span(0, 100, 250, 400, ClassDemand, RowHit)
	if s.QueueWait() != 150 {
		t.Fatalf("QueueWait = %d, want 150", s.QueueWait())
	}
	if s.Service() != 150 {
		t.Fatalf("Service = %d, want 150", s.Service())
	}
	drop := Span{Enqueue: 100, Finish: 1100, Class: ClassDropped}
	if drop.QueueWait() != 1000 {
		t.Fatalf("drop QueueWait = %d, want the whole buffered life 1000", drop.QueueWait())
	}
	if drop.Service() != 0 {
		t.Fatalf("drop Service = %d, want 0", drop.Service())
	}
}

func TestRecordFoldsAggregates(t *testing.T) {
	tr := New(Options{})
	tr.Record(span(0, 0, 10, 110, ClassDemand, RowHit))      // queue 10, svc 100
	tr.Record(span(0, 5, 25, 225, ClassDemand, RowConflict)) // queue 20, svc 200
	tr.Record(span(0, 0, 40, 90, ClassPrefPure, RowHit))     // queue 40, svc 50
	tr.Record(Span{Enqueue: 0, Finish: 5000, Class: ClassDropped, Row: RowNone, Core: 0})
	tr.Record(span(2, 0, 1, 2, ClassPrefUseful, RowClosed))

	if tr.Recorded() != 5 {
		t.Fatalf("Recorded = %d, want 5", tr.Recorded())
	}
	if tr.Cores() != 3 {
		t.Fatalf("Cores = %d, want 3 (highest id + 1)", tr.Cores())
	}
	bd := tr.Breakdown(0)
	if bd.Spans() != 4 {
		t.Fatalf("core 0 spans = %d, want 4", bd.Spans())
	}
	dem := bd.Total(ClassDemand)
	if dem.Count != 2 || dem.QueueCycles != 30 || dem.ServiceCycles != 300 {
		t.Fatalf("demand total = %+v, want {2 30 300}", dem)
	}
	if c := bd.Cells[ClassDemand][RowConflict]; c.Count != 1 || c.QueueCycles != 20 || c.ServiceCycles != 200 {
		t.Fatalf("demand/conflict cell = %+v", c)
	}
	if c := bd.Cells[ClassDropped][RowNone]; c.Count != 1 || c.QueueCycles != 5000 || c.ServiceCycles != 0 {
		t.Fatalf("dropped cell = %+v", c)
	}
	// Queue histogram saw all 4 core-0 spans; service histogram only the
	// 3 that issued.
	var q, s uint64
	for i := 0; i < NumHistBuckets; i++ {
		q += bd.QueueHist[i]
		s += bd.ServiceHist[i]
	}
	if q != 4 || s != 3 {
		t.Fatalf("hist totals queue=%d service=%d, want 4 and 3", q, s)
	}
	if bd.QueueHist[NumHistBuckets-1] != 1 {
		t.Fatalf("5000-cycle drop should land in the overflow bucket, hist=%v", bd.QueueHist)
	}
}

func TestReservoirBoundsRetention(t *testing.T) {
	const cap, n = 8, 1000
	tr := New(Options{ReservoirPerCore: cap})
	for i := 0; i < n; i++ {
		tr.Record(span(0, uint64(i), uint64(i)+10, uint64(i)+110, ClassDemand, RowHit))
	}
	if tr.Recorded() != n {
		t.Fatalf("Recorded = %d, want %d (aggregates see everything)", tr.Recorded(), n)
	}
	spans := tr.Spans()
	if len(spans) != cap {
		t.Fatalf("retained %d spans, want the reservoir cap %d", len(spans), cap)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Enqueue < spans[i-1].Enqueue {
			t.Fatal("Spans() not ordered by enqueue cycle")
		}
	}
	bd := tr.Breakdown(0)
	if bd.Total(ClassDemand).Count != n {
		t.Fatalf("aggregate count = %d, want %d despite sampling", bd.Total(ClassDemand).Count, n)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	mk := func() []Span {
		tr := New(Options{ReservoirPerCore: 16})
		for i := 0; i < 500; i++ {
			tr.Record(span(int16(i%2), uint64(i), uint64(i)+5, uint64(i)+105, ClassDemand, RowHit))
		}
		return tr.Spans()
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("identical input produced different reservoir samples")
	}
}

func TestNegativeReservoirDisablesRetention(t *testing.T) {
	tr := New(Options{ReservoirPerCore: -1})
	tr.Record(span(0, 1, 2, 3, ClassDemand, RowHit))
	if len(tr.Spans()) != 0 {
		t.Fatal("negative reservoir should retain no spans")
	}
	bd := tr.Breakdown(0)
	if tr.Recorded() != 1 || bd.Spans() != 1 {
		t.Fatal("aggregates must still accumulate with retention off")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New(Options{})
	tr.Record(span(1, 0, 10, 110, ClassDemand, RowHit))
	tr.Record(span(1, 0, 20, 120, ClassDemand, RowHit))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "core,class,row,count,queue_cycles,service_cycles,avg_queue,avg_service" {
		t.Fatalf("bad header: %s", lines[0])
	}
	if len(lines) != 2 || lines[1] != "1,demand,hit,2,30,200,15.0,100.0" {
		t.Fatalf("bad rows: %v", lines[1:])
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(Options{})
	tr.Record(span(0, 7, 17, 117, ClassPrefUseful, RowConflict))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSONL line %q: %v", buf.String(), err)
	}
	if obj["class"] != "pref-useful" || obj["row"] != "conflict" ||
		obj["queue_wait"] != float64(10) || obj["service"] != float64(100) {
		t.Fatalf("bad span object: %v", obj)
	}
}

func TestChromeSlices(t *testing.T) {
	tr := New(Options{})
	tr.Record(span(0, 0, 10, 110, ClassDemand, RowHit))
	tr.Record(Span{Enqueue: 0, Finish: 400, Class: ClassDropped, Row: RowNone, Core: 0})

	var events []map[string]any
	tr.ChromeSlices(func(format string, args ...any) {
		var obj map[string]any
		s := strings.TrimSpace(fmt.Sprintf(format, args...))
		if err := json.Unmarshal([]byte(s), &obj); err != nil {
			t.Fatalf("emitted invalid JSON %q: %v", s, err)
		}
		events = append(events, obj)
	})

	var slices, instants, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			slices++
			args := e["args"].(map[string]any)
			if args["queue_wait"] != float64(10) || args["service"] != float64(100) {
				t.Fatalf("slice args missing queue-wait/service split: %v", args)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if slices != 1 || instants != 1 || meta == 0 {
		t.Fatalf("slices=%d instants=%d meta=%d, want 1/1/>0", slices, instants, meta)
	}
}

func TestBreakdownTableRows(t *testing.T) {
	tr := New(Options{})
	tr.Record(span(0, 0, 10, 110, ClassDemand, RowHit))
	out := tr.BreakdownTable()
	if !strings.Contains(out, "1 spans recorded") || !strings.Contains(out, "demand") {
		t.Fatalf("unexpected table:\n%s", out)
	}
}

// TestChromeSlicesNamesTracksInOrder: the per-channel track names come
// out in channel order, so a trace file is byte-identical across runs.
func TestChromeSlicesNamesTracksInOrder(t *testing.T) {
	tr := New(Options{})
	for _, ch := range []int16{3, 1, 2, 0, 1} {
		sp := span(0, 0, 10, 110, ClassDemand, RowHit)
		sp.Chan = ch
		tr.Record(sp)
	}
	var names []string
	tr.ChromeSlices(func(format string, args ...any) {
		if strings.Contains(format, "process_name") {
			names = append(names, fmt.Sprintf(format, args...))
		}
	})
	want := []string{}
	for ch := 0; ch < 4; ch++ {
		want = append(want, fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"lifecycle%d"}}`, chromeLifecyclePID+ch, ch))
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("track names %v, want %v", names, want)
	}
}

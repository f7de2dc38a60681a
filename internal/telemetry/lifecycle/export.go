package lifecycle

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cyclesPerMicro converts simulator cycles to trace_event microseconds
// (the paper's 4GHz core clock), matching internal/telemetry's constant so
// lifecycle slices line up with the event timeline in one trace.
const cyclesPerMicro = 4000.0

// chromeLifecyclePID hosts lifecycle span tracks in the Chrome trace;
// channel c's spans render under pid chromeLifecyclePID+c so they sit next
// to (not on top of) the raw memctrl event tracks.
const chromeLifecyclePID = 2000

// WriteCSV writes the per-core latency decomposition, one row per
// populated (core, class, row-outcome) cell:
//
//	core,class,row,count,queue_cycles,service_cycles,avg_queue,avg_service
func (t *Tracer) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("core,class,row,count,queue_cycles,service_cycles,avg_queue,avg_service\n")
	if t != nil {
		for core := range t.cores {
			agg := &t.cores[core].agg
			for cl := Class(0); cl < NumClasses; cl++ {
				for row := RowOutcome(0); row < NumRowOutcomes; row++ {
					cell := agg.Cells[cl][row]
					if cell.Count == 0 {
						continue
					}
					n := float64(cell.Count)
					fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%d,%.1f,%.1f\n",
						core, cl, row, cell.Count, cell.QueueCycles, cell.ServiceCycles,
						float64(cell.QueueCycles)/n, float64(cell.ServiceCycles)/n)
				}
			}
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the retained spans one JSON object per line, ordered
// by enqueue cycle.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, sp := range t.Spans() {
		fmt.Fprintf(bw, `{"core":%d,"chan":%d,"bank":%d,"line":%d,"class":%q,"row":%q,`+
			`"enqueue":%d,"promote":%d,"issue":%d,"finish":%d,"queue_wait":%d,"service":%d}`+"\n",
			sp.Core, sp.Chan, sp.Bank, sp.Line, sp.Class.String(), sp.Row.String(),
			sp.Enqueue, sp.Promote, sp.Issue, sp.Finish, sp.QueueWait(), sp.Service())
	}
	return bw.Flush()
}

// ChromeSlices emits the retained spans as Chrome trace_event entries via
// emit (the hook telemetry.WriteChromeTraceWith passes through), so
// lifecycle spans land in the same trace file as the event ring. Each
// request renders as one duration slice from enqueue to completion on its
// channel's lifecycle track (one thread per bank), carrying queue-wait
// versus service args; drops render as instant events.
func (t *Tracer) ChromeSlices(emit func(format string, args ...any)) {
	if t == nil {
		return
	}
	spans := t.Spans()
	var chans []int16 // channels with spans, named in ascending order
	for _, sp := range spans {
		if sp.Chan >= 0 && !slices.Contains(chans, sp.Chan) {
			chans = append(chans, sp.Chan)
		}
	}
	slices.Sort(chans)
	for _, ch := range chans {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"lifecycle%d"}}`,
			chromeLifecyclePID+int(ch), ch)
	}
	for _, sp := range spans {
		pid := chromeLifecyclePID + int(sp.Chan)
		ts := float64(sp.Enqueue) / cyclesPerMicro
		if sp.Class == ClassDropped {
			emit(`{"ph":"i","s":"t","name":"drop","cat":"lifecycle","ts":%.3f,"pid":%d,"tid":%d,"args":{"core":%d,"line":%d,"queue_wait":%d}}`,
				float64(sp.Finish)/cyclesPerMicro, pid, sp.Bank, sp.Core, sp.Line, sp.QueueWait())
			continue
		}
		dur := float64(sp.Finish-sp.Enqueue) / cyclesPerMicro
		emit(`{"ph":"X","name":%q,"cat":"lifecycle","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,`+
			`"args":{"core":%d,"line":%d,"queue_wait":%d,"service":%d,"row":%q,"promoted":%t}}`,
			sp.Class.String(), ts, dur, pid, sp.Bank,
			sp.Core, sp.Line, sp.QueueWait(), sp.Service(), sp.Row.String(), sp.Promote != 0)
	}
}

// BreakdownTable renders an aligned per-core latency-decomposition table:
// per request class, the span count and average queue-wait and service
// cycles, plus the row-outcome mix of serviced spans.
func (t *Tracer) BreakdownTable() string {
	if t == nil {
		return "lifecycle: disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lifecycle: %d spans recorded\n", t.Recorded())
	fmt.Fprintf(&b, "%-5s %-13s %9s %10s %10s %7s %7s %8s\n",
		"core", "class", "count", "avg-queue", "avg-svc", "hit%", "closed%", "conflict%")
	for core := range t.cores {
		agg := &t.cores[core].agg
		for cl := Class(0); cl < NumClasses; cl++ {
			tot := agg.Total(cl)
			if tot.Count == 0 {
				continue
			}
			n := float64(tot.Count)
			var hit, closed, conflict uint64
			for row := RowOutcome(0); row < NumRowOutcomes; row++ {
				switch row {
				case RowHit:
					hit = agg.Cells[cl][row].Count
				case RowClosed:
					closed = agg.Cells[cl][row].Count
				case RowConflict:
					conflict = agg.Cells[cl][row].Count
				}
			}
			fmt.Fprintf(&b, "%-5d %-13s %9d %10.1f %10.1f %6.1f%% %6.1f%% %7.1f%%\n",
				core, cl, tot.Count,
				float64(tot.QueueCycles)/n, float64(tot.ServiceCycles)/n,
				100*float64(hit)/n, 100*float64(closed)/n, 100*float64(conflict)/n)
		}
	}
	return b.String()
}

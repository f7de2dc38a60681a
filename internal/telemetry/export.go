package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// sortedKeys returns a map's keys in ascending order, for deterministic
// export iteration.
func sortedKeys(m map[int16]bool) []int16 {
	out := make([]int16, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cyclesPerMicro converts simulator cycles to trace_event microseconds
// (the paper's 4GHz core clock: 4000 cycles per µs).
const cyclesPerMicro = 4000.0

// WriteCSV writes the epoch time series as CSV: a "cycle" column followed
// by one column per registered metric in registration order. Counter
// columns hold per-epoch deltas, gauge columns instantaneous values.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	s := t.SeriesData()
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for _, n := range s.Names {
		bw.WriteByte(',')
		bw.WriteString(csvQuote(n))
	}
	bw.WriteByte('\n')
	for _, row := range s.Rows {
		bw.WriteString(strconv.FormatUint(row.Cycle, 10))
		for _, v := range row.Vals {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// csvQuote quotes a field when it needs it (metric names are plain, but
// stay safe).
func csvQuote(s string) string {
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			return strconv.Quote(s)
		}
	}
	return s
}

// WriteJSONL writes the retained events one JSON object per line, oldest
// first: {"cycle":..,"kind":"drop","core":..,"chan":..,"bank":..,
// "line":..,"a":..,"pref":..}.
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		fmt.Fprintf(bw, `{"cycle":%d,"kind":%q,"core":%d,"chan":%d,"bank":%d,"line":%d,"a":%d,"pref":%t}`+"\n",
			ev.Cycle, ev.Kind.String(), ev.Core, ev.Chan, ev.Bank, ev.Line, ev.A, ev.Pref)
	}
	return bw.Flush()
}

// Chrome trace_event pid/tid conventions: each memory controller is a
// process whose threads are its banks, plus a "rank" thread (tid -1) for
// all-bank refreshes; core-side events (promotion flips, MSHR stalls)
// live in a synthetic "cores" process with one thread per core.
const chromeCorePID = 1000

// WriteChromeTraceWith writes the retained events in Chrome trace_event
// JSON (load in chrome://tracing or https://ui.perfetto.dev). DRAM
// service completions and refreshes render as duration ("X") spans on
// their bank's track (an all-bank refresh on its channel's rank track);
// drops, promotions, rejects and stalls render as instant ("i") events. Timestamps are microseconds at the 4GHz core clock. extra, when
// non-nil, is called with the raw trace_event emitter so other layers
// (lifecycle spans, flight counters) can interleave their records into
// the same trace file. The emitter handles comma placement; each call
// must format one complete trace_event JSON object.
func (t *Telemetry) WriteChromeTraceWith(w io.Writer, extra func(emit func(format string, args ...any))) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Name the tracks that appear in the event stream. Keys are sorted so
	// the trace file is byte-identical across runs (map iteration order
	// would otherwise leak into the metadata records).
	chans := map[int16]bool{}
	ranks := map[int16]bool{}
	cores := map[int16]bool{}
	for _, ev := range t.Events() {
		if ev.Chan >= 0 {
			chans[ev.Chan] = true
		}
		if ev.Kind == EvRefresh && ev.Bank < 0 {
			ranks[ev.Chan] = true
		}
		if ev.Core >= 0 {
			cores[ev.Core] = true
		}
	}
	for _, ch := range sortedKeys(chans) {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"memctrl%d"}}`, ch, ch)
	}
	for _, ch := range sortedKeys(ranks) {
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":-1,"args":{"name":"rank"}}`, ch)
	}
	if len(cores) > 0 {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"cores"}}`, chromeCorePID)
		for _, c := range sortedKeys(cores) {
			emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"core%d"}}`, chromeCorePID, c, c)
		}
	}

	for _, ev := range t.Events() {
		ts := float64(ev.Cycle) / cyclesPerMicro
		switch ev.Kind {
		case EvComplete:
			name := "demand"
			if ev.Pref {
				name = "prefetch"
			}
			emit(`{"ph":"X","name":%q,"cat":"dram","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"core":%d,"line":%d}}`,
				name, ts, float64(ev.A)/cyclesPerMicro, ev.Chan, ev.Bank, ev.Core, ev.Line)
		case EvRefresh:
			emit(`{"ph":"X","name":"refresh","cat":"dram","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
				ts, float64(ev.A-ev.Cycle)/cyclesPerMicro, ev.Chan, ev.Bank)
		case EvDrop, EvRowConflict, EvEnqueue, EvIssue, EvReject:
			emit(`{"ph":"i","s":"t","name":%q,"cat":"memctrl","ts":%.3f,"pid":%d,"tid":%d,"args":{"core":%d,"line":%d,"a":%d}}`,
				ev.Kind.String(), ts, ev.Chan, ev.Bank, ev.Core, ev.Line, ev.A)
		case EvPromotion, EvMSHRStall:
			emit(`{"ph":"i","s":"t","name":%q,"cat":"core","ts":%.3f,"pid":%d,"tid":%d,"args":{"a":%d}}`,
				ev.Kind.String(), ts, chromeCorePID, ev.Core, ev.A)
		}
	}
	if extra != nil {
		extra(emit)
	}
	bw.WriteString("]}")
	return bw.Flush()
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, for the CLI's live -http endpoint. Slash-scoped
// metric names are flattened to padc_<name> with non-alphanumerics
// replaced by underscores; counters and gauges carry their kind, and
// histograms expand to the cumulative _bucket/_sum/_count triple.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t == nil {
		return bw.Flush()
	}
	for _, m := range t.metrics {
		name := promName(m.name)
		kind := "counter"
		if m.kind == KindGauge {
			kind = "gauge"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n%s %s\n",
			name, kind, name, strconv.FormatFloat(m.read(), 'g', -1, 64))
	}
	for _, h := range t.hists {
		name := promName(h.name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, c := range h.counts {
			cum += c
			if i < len(h.bounds) {
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, h.bounds[i], cum)
			} else {
				fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			}
		}
		fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Total())
	}
	return bw.Flush()
}

// promName flattens a slash-scoped metric name into a Prometheus-legal
// one: "memctrl0/drops" -> "padc_memctrl0_drops".
func promName(name string) string {
	b := []byte("padc_" + name)
	for i := 5; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		b[i] = '_'
	}
	return string(b)
}

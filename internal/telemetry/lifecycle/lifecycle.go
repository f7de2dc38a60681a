// Package lifecycle is the per-request span layer of the simulator's
// observability stack: every memory request is stamped through its stages
// (enqueue into the memory request buffer, optional promotion from
// prefetch to demand criticality, issue to a DRAM bank, completion or APD
// drop) and the resulting span is folded into per-core
// latency-decomposition aggregates — queue wait versus DRAM service, split
// by request class (demand / useful prefetch / pure prefetch / dropped)
// and by the row-buffer state the request found.
//
// The tracer subscribes to the simulator's probe (internal/telemetry/
// probe): Observe turns each Complete and Drop event into a span and
// Records it. A nil *Tracer is a valid disabled instance. Record is
// allocation-free on the steady state: spans are folded into
// preallocated per-core aggregates and retained in a bounded per-core
// reservoir (deterministic xorshift sampling), so arbitrarily long runs
// keep a representative sample at fixed memory.
package lifecycle

import (
	"sort"

	"padc/internal/dram"
	"padc/internal/telemetry/probe"
)

// Class classifies a request at the end of its lifecycle.
type Class uint8

const (
	// ClassDemand is a demand miss serviced by DRAM.
	ClassDemand Class = iota
	// ClassPrefUseful is a prefetch a demand promoted before service
	// completed (known useful, §4.1).
	ClassPrefUseful
	// ClassPrefPure is a prefetch that completed still speculative; its
	// usefulness resolves (or not) after the fill.
	ClassPrefPure
	// ClassDropped is a prefetch Adaptive Prefetch Dropping removed from
	// the request buffer before issue.
	ClassDropped
	// NumClasses bounds Class values.
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassPrefUseful:
		return "pref-useful"
	case ClassPrefPure:
		return "pref-pure"
	case ClassDropped:
		return "pref-dropped"
	default:
		return "unknown"
	}
}

// RowOutcome is dram.RowState as the span tables index it, with an extra
// "never issued" value first, for drops.
type RowOutcome uint8

const (
	// RowNone marks a request that never reached a bank (APD drops).
	RowNone RowOutcome = iota
	// RowHit found its row open.
	RowHit
	// RowClosed found the bank precharged.
	RowClosed
	// RowConflict found a different row open.
	RowConflict
	// NumRowOutcomes bounds RowOutcome values.
	NumRowOutcomes
)

// String implements fmt.Stringer.
func (r RowOutcome) String() string {
	switch r {
	case RowNone:
		return "none"
	case RowHit:
		return "hit"
	case RowClosed:
		return "closed"
	case RowConflict:
		return "conflict"
	default:
		return "unknown"
	}
}

// Span is one request's complete lifecycle. Cycle stamps are absolute;
// Promote and Issue are zero when the request never reached that stage
// (drops have only Enqueue and Finish).
type Span struct {
	Enqueue uint64 // admitted to the memory request buffer
	Promote uint64 // demand merged into the buffered prefetch (0 = never)
	Issue   uint64 // scheduled to a DRAM bank (0 = dropped before issue)
	Finish  uint64 // fill completed, or the drop cycle for ClassDropped

	Line  uint64
	Class Class
	Row   RowOutcome
	Core  int16
	Chan  int16
	Bank  int16
}

// QueueWait returns the cycles the request waited in the buffer before
// issue; for dropped requests this is the whole buffered life.
func (s Span) QueueWait() uint64 {
	end := s.Issue
	if end == 0 {
		end = s.Finish
	}
	if end < s.Enqueue {
		return 0
	}
	return end - s.Enqueue
}

// Service returns the DRAM service cycles (issue to fill); 0 for drops.
func (s Span) Service() uint64 {
	if s.Issue == 0 || s.Finish < s.Issue {
		return 0
	}
	return s.Finish - s.Issue
}

// Cell is one (class, row-outcome) aggregation bucket of a core's
// latency decomposition.
type Cell struct {
	Count         uint64
	QueueCycles   uint64 // summed queue waits
	ServiceCycles uint64 // summed DRAM service spans
}

// histBounds are the inclusive upper edges of the queue-wait and service
// histograms (cycles); one overflow bucket is implicit. The range covers
// a row hit (72 cycles at DDR3-1333/4GHz) through deeply queued requests.
var histBounds = [...]uint64{30, 60, 120, 240, 480, 960, 1920, 3840}

// NumHistBuckets is the bucket count of QueueHist/ServiceHist (the bounds
// plus one overflow bucket).
const NumHistBuckets = len(histBounds) + 1

// CoreBreakdown is one core's folded latency decomposition.
type CoreBreakdown struct {
	Cells       [NumClasses][NumRowOutcomes]Cell
	QueueHist   [NumHistBuckets]uint64
	ServiceHist [NumHistBuckets]uint64
}

// Total returns the summed (count, queue cycles, service cycles) over all
// cells of the given class.
func (b *CoreBreakdown) Total(c Class) Cell {
	var t Cell
	for _, cell := range b.Cells[c] {
		t.Count += cell.Count
		t.QueueCycles += cell.QueueCycles
		t.ServiceCycles += cell.ServiceCycles
	}
	return t
}

func histBucket(v uint64) int {
	for i, b := range histBounds {
		if v <= b {
			return i
		}
	}
	return len(histBounds)
}

// Options configures a Tracer.
type Options struct {
	// ReservoirPerCore bounds how many raw spans each core retains for
	// export (0 uses DefaultReservoir, negative disables retention;
	// aggregates always accumulate).
	ReservoirPerCore int
}

// DefaultReservoir is the per-core span retention when Options leaves it
// zero.
const DefaultReservoir = 4096

// coreState is one core's aggregates plus its span reservoir.
type coreState struct {
	agg  CoreBreakdown
	res  []Span
	seen uint64 // spans offered to the reservoir
}

// Tracer folds request spans into per-core breakdowns and retains a
// bounded sample of raw spans. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	opts   Options
	resCap int
	cores  []*coreState
	rng    uint64 // deterministic xorshift64* state for reservoir sampling

	recorded uint64 // spans folded over the run
}

// New builds an enabled Tracer.
func New(opts Options) *Tracer {
	cap := opts.ReservoirPerCore
	if cap == 0 {
		cap = DefaultReservoir
	}
	if cap < 0 {
		cap = 0
	}
	return &Tracer{opts: opts, resCap: cap, rng: 0x9e3779b97f4a7c15}
}

func (t *Tracer) next() uint64 {
	// xorshift64*: deterministic, seeded at construction, good enough for
	// reservoir admission decisions.
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (t *Tracer) core(id int16) *coreState {
	for int(id) >= len(t.cores) {
		t.cores = append(t.cores, &coreState{})
	}
	return t.cores[id]
}

// rowOutcome lowers the DRAM model's row state onto RowOutcome.
var rowOutcome = [...]RowOutcome{dram.RowHit: RowHit, dram.RowClosed: RowClosed, dram.RowConflict: RowConflict}

// Observe records the span a Complete or Drop event closes; other kinds,
// and the memory-side engine's pressure sheds (Core -1: no request was
// ever buffered), are not request lifecycles.
func (t *Tracer) Observe(ev probe.Event) {
	if ev.Kind != probe.Complete && ev.Kind != probe.Drop {
		return
	}
	sp := Span{
		Enqueue: ev.Enqueue, Promote: ev.Promote, Issue: ev.Issue, Finish: ev.Cycle,
		Line: ev.Line, Class: ClassDropped, Core: ev.Core, Chan: ev.Chan, Bank: ev.Bank,
	}
	if ev.Kind == probe.Complete {
		sp.Row, sp.Class = rowOutcome[ev.Row], ClassPrefPure
		if !ev.WasPref {
			sp.Class = ClassDemand
		} else if !ev.Pref {
			sp.Class = ClassPrefUseful
		}
	}
	t.Record(sp)
}

// Record folds one finished span (completion or drop) into its core's
// breakdown and offers it to the reservoir. Nil tracers no-op, so call
// sites guard with a single pointer compare.
func (t *Tracer) Record(sp Span) {
	if t == nil || sp.Core < 0 {
		return
	}
	cs := t.core(sp.Core)
	row := sp.Row
	if row >= NumRowOutcomes {
		row = RowNone
	}
	cl := sp.Class
	if cl >= NumClasses {
		cl = ClassDemand
	}
	cell := &cs.agg.Cells[cl][row]
	qw, svc := sp.QueueWait(), sp.Service()
	cell.Count++
	cell.QueueCycles += qw
	cell.ServiceCycles += svc
	cs.agg.QueueHist[histBucket(qw)]++
	if sp.Issue != 0 {
		cs.agg.ServiceHist[histBucket(svc)]++
	}
	t.recorded++

	// Reservoir (algorithm R): keep a uniform sample at fixed memory.
	if t.resCap == 0 {
		return
	}
	cs.seen++
	if len(cs.res) < t.resCap {
		cs.res = append(cs.res, sp)
		return
	}
	if j := t.next() % cs.seen; j < uint64(t.resCap) {
		cs.res[j] = sp
	}
}

// Recorded returns how many spans were folded over the run.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded
}

// Cores returns how many cores have recorded spans (the highest core id
// seen plus one).
func (t *Tracer) Cores() int {
	if t == nil {
		return 0
	}
	return len(t.cores)
}

// Breakdown returns core's folded latency decomposition (zero value for
// unknown cores or a nil tracer).
func (t *Tracer) Breakdown(core int) CoreBreakdown {
	if t == nil || core < 0 || core >= len(t.cores) {
		return CoreBreakdown{}
	}
	return t.cores[core].agg
}

// Spans returns every retained span across cores, ordered by enqueue
// cycle (ties by core). When a core saw more spans than its reservoir
// holds, the result is a uniform sample; Recorded reports the true total.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, cs := range t.cores {
		out = append(out, cs.res...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Enqueue != out[j].Enqueue {
			return out[i].Enqueue < out[j].Enqueue
		}
		return out[i].Core < out[j].Core
	})
	return out
}

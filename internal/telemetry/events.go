package telemetry

import (
	"padc/internal/dram"
	"padc/internal/telemetry/probe"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvEnqueue: a request entered a memory controller's request buffer.
	// A = 1 if prefetch.
	EvEnqueue EventKind = iota
	// EvIssue: a controller issued a request to its DRAM channel.
	// A = predicted finish cycle.
	EvIssue
	// EvComplete: DRAM service finished and the line was filled.
	// A = service span in cycles (issue to finish); Cycle is the issue
	// cycle so Chrome-trace spans render at the right place.
	EvComplete
	// EvDrop: APD removed an expired prefetch from the buffer.
	// A = the request's age in cycles at the drop.
	EvDrop
	// EvPromotion: a core's accuracy estimate crossed the APS promotion
	// threshold. A = new accuracy in ppm; Bank = 1 when promoted, 0 when
	// demoted.
	EvPromotion
	// EvRowConflict: an issued request found a conflicting open row.
	EvRowConflict
	// EvMSHRStall: a demand load was rejected because the MSHR file or
	// the request buffer was full.
	EvMSHRStall
	// EvReject: a request was rejected by a full request buffer.
	EvReject
	// EvRefresh: the maintenance engine refreshed a bank (Bank >= 0) or a
	// whole rank (Bank = -1). A = the cycle the refresh completes.
	EvRefresh
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvIssue:
		return "issue"
	case EvComplete:
		return "complete"
	case EvDrop:
		return "drop"
	case EvPromotion:
		return "promotion"
	case EvRowConflict:
		return "row-conflict"
	case EvMSHRStall:
		return "mshr-stall"
	case EvReject:
		return "reject"
	case EvRefresh:
		return "refresh"
	default:
		return "unknown"
	}
}

// Event is one typed trace record. The fixed shape keeps the ring
// allocation-free: Emit copies the struct into a preallocated slot.
type Event struct {
	Cycle uint64
	Line  uint64 // line address (0 when not applicable)
	A     uint64 // kind-specific scalar; see the EventKind docs
	Kind  EventKind
	Pref  bool  // the request was (still) a prefetch
	Core  int16 // -1 when not applicable
	Chan  int16 // memory controller index; -1 when not applicable
	Bank  int16 // -1 when not applicable
}

// ring is a bounded overwrite-oldest event buffer.
type ring struct {
	buf     []Event
	next    int
	wrapped bool
}

func (r *ring) init(capacity int) {
	if capacity > 0 {
		r.buf = make([]Event, capacity)
	}
}

func (r *ring) add(ev Event) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// events returns the retained events in chronological order.
func (r *ring) events() []Event {
	if !r.wrapped {
		return r.buf[:r.next]
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Observe is the event ring's probe subscription: each request and bank
// event becomes one ring record (an issue that found a conflicting row
// adds an EvRowConflict record), a completion also books its
// arrival-to-fill time into dram/service_cycles, and a rank-wide refresh
// is one record with Bank -1. Refresh-blocked slots are not recorded.
func (t *Telemetry) Observe(ev probe.Event) {
	e := Event{Kind: ringKind[ev.Kind], Cycle: ev.Cycle, Line: ev.Line, A: ev.A, Pref: ev.Pref, Core: ev.Core, Chan: ev.Chan, Bank: ev.Bank}
	switch ev.Kind {
	case probe.RefreshBlocked:
		return
	case probe.Issue:
		if ev.Row == dram.RowConflict {
			t.Emit(e)
			e.Kind, e.A = EvRowConflict, 0
		}
	case probe.Complete:
		// The record spans issue to fill, so Chrome-trace slices render
		// where DRAM service happened.
		t.svc.Observe(ev.Cycle - ev.Enqueue)
		e.Cycle, e.A = ev.Issue, ev.Cycle-ev.Issue
	case probe.Refresh:
		if ev.AllBank {
			if ev.Bank != 0 {
				return
			}
			e.Bank = -1
		}
	}
	t.Emit(e)
}

// ringKind names the ring record each probe kind becomes.
var ringKind = [...]EventKind{
	probe.Enqueue: EvEnqueue, probe.Reject: EvReject, probe.Issue: EvIssue, probe.Complete: EvComplete,
	probe.Drop: EvDrop, probe.Promotion: EvPromotion, probe.Refresh: EvRefresh, probe.MSHRStall: EvMSHRStall,
}

// Emit records one event (no-op for nil or event-disabled telemetry).
func (t *Telemetry) Emit(ev Event) {
	if t == nil {
		return
	}
	t.ring.add(ev)
}

// Events returns the retained events in chronological order. When the run
// produced more events than the ring holds, the oldest were overwritten.
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.events()
}

// EventCounts returns, per event kind, how many retained events the ring
// holds.
func (t *Telemetry) EventCounts() map[string]uint64 {
	if t == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, ev := range t.Events() {
		out[ev.Kind.String()]++
	}
	return out
}

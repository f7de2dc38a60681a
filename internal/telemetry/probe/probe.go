// Package probe is the simulator's one push channel for observation. The
// producers — the memory controllers, the PADC accuracy meters and the
// system's run loop — publish each request and bank event once, as a
// typed Event, to a Probe; the observers (the telemetry event ring, the
// flight recorder, the lifecycle tracer) subscribe to it. A producer
// never knows who reads: it holds one *Probe, nil when nothing observes,
// so an emit site costs one pointer compare when observation is off and
// builds no event. Publishing copies the event by value into each
// subscriber and allocates nothing.
package probe

import "padc/internal/dram"

// Kind classifies a published event.
type Kind uint8

const (
	// Enqueue: a request entered a controller's request buffer. Cycle is
	// its arrival.
	Enqueue Kind = iota
	// Reject: a full request buffer turned a request away. Cycle is its
	// arrival.
	Reject
	// Issue: a controller scheduled a request to its DRAM bank. A is the
	// cycle the request completes (its link delay included); Row is the
	// row-buffer state it found; Opens and Closes count the row
	// activations and precharges the access caused (a conflict precharges
	// before it, a closing page policy may precharge again after it).
	Issue
	// Complete: a serviced request retired into the hierarchy. Cycle is
	// the fill; Enqueue, Promote and Issue are its stage stamps; Row is
	// the state it found at issue; Pref and WasPref give its class.
	Complete
	// Drop: APD removed an expired prefetch from the buffer (A is its
	// age, Enqueue its arrival), or the memory-side engine shed its
	// candidate list under demand pressure (Core -1, A the candidates
	// shed).
	Drop
	// Promotion: a core's accuracy estimate crossed the APS promotion
	// threshold. A is the new accuracy in ppm; Bank is 1 when promoted, 0
	// when demoted; Chan is the memory domain on a tiered machine, else -1.
	Promotion
	// Refresh: the maintenance engine refreshed a bank. A is the cycle the
	// refresh completes; Closes is 1 when it precharged an open row;
	// AllBank marks one bank's share of a rank-wide refresh.
	Refresh
	// RefreshBlocked: a bank had waiting work in a scheduling slot but was
	// refreshing.
	RefreshBlocked
	// MSHRStall: a demand load found its MSHR file full.
	MSHRStall
)

// Event is one published observation. Fields a kind does not use are
// zero, and Core, Chan and Bank are -1 where they do not apply.
type Event struct {
	Cycle uint64
	Line  uint64 // line address (0 when not applicable)
	A     uint64 // kind-specific scalar; see the Kind docs

	// Request stage stamps: arrival in the buffer, the cycle a demand
	// promoted the prefetch (0 = never), and issue to the bank.
	Enqueue, Promote, Issue uint64

	Kind    Kind
	Pref    bool // the request was (still) a prefetch
	WasPref bool // the request entered the buffer as a prefetch
	AllBank bool
	Row     dram.RowState
	Opens   uint8
	Closes  uint8

	Core, Chan, Bank int16
}

// Subscriber receives every event published to the probes it is attached
// to.
type Subscriber interface {
	Observe(ev Event)
}

// Probe fans each published event out to its subscribers in attach order.
type Probe struct {
	subs []Subscriber
}

// New returns a probe publishing to subs, or nil when subs is empty, so
// producers handed its result pay one nil compare per emit site when
// nothing observes.
func New(subs ...Subscriber) *Probe {
	if len(subs) == 0 {
		return nil
	}
	return &Probe{subs: subs}
}

// Publish hands ev to every subscriber.
func (p *Probe) Publish(ev Event) {
	for _, s := range p.subs {
		s.Observe(ev)
	}
}

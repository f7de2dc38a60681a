package probe_test

import (
	"testing"

	"padc/internal/dram"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/telemetry/probe"
)

// TestNewWithoutSubscribersIsNil pins the producers' off switch: a probe
// nobody subscribes to is nil, so emit sites skip it with one compare.
func TestNewWithoutSubscribersIsNil(t *testing.T) {
	if p := probe.New(); p != nil {
		t.Fatalf("New() = %v, want nil", p)
	}
}

// TestPublishAllocatesNothing publishes every kind to the three
// subscribers the simulator attaches and requires zero allocations: the
// event travels by value, and each subscriber folds it into storage it
// sized up front (the lifecycle tracer's span retention, which grows to
// its reservoir bound, is switched off here).
func TestPublishAllocatesNothing(t *testing.T) {
	tel := telemetry.New(telemetry.Options{EventCapacity: 64})
	rec := flight.New(flight.Options{})
	rec.Configure(2, 8)
	tr := lifecycle.New(lifecycle.Options{ReservoirPerCore: -1})
	p := probe.New(tel, rec, tr)
	events := []probe.Event{
		{Kind: probe.Enqueue, Cycle: 1, Line: 7, Core: 0, Chan: 1, Bank: 3},
		{Kind: probe.Reject, Cycle: 1, Line: 8, Core: 1, Chan: 1, Bank: 3},
		{Kind: probe.Issue, Cycle: 4, Line: 7, A: 200, Row: dram.RowConflict, Opens: 1, Closes: 2, Core: 0, Chan: 1, Bank: 3},
		{Kind: probe.Complete, Cycle: 200, Line: 7, Enqueue: 1, Issue: 4, Row: dram.RowConflict, Core: 0, Chan: 1, Bank: 3},
		{Kind: probe.Drop, Cycle: 256, Line: 9, A: 250, Enqueue: 6, Pref: true, WasPref: true, Core: 1, Chan: 0, Bank: 2},
		{Kind: probe.Drop, Cycle: 256, A: 4, Pref: true, WasPref: true, Core: -1, Chan: 0, Bank: -1},
		{Kind: probe.Promotion, Cycle: 12_500, A: 900_000, Core: 1, Chan: -1, Bank: 1},
		{Kind: probe.Refresh, Cycle: 300, A: 660, AllBank: true, Closes: 1, Core: -1, Chan: 0, Bank: 0},
		{Kind: probe.Refresh, Cycle: 300, A: 660, Core: -1, Chan: 1, Bank: 5},
		{Kind: probe.RefreshBlocked, Cycle: 304, Core: -1, Chan: 1, Bank: 5},
		{Kind: probe.MSHRStall, Cycle: 310, Line: 11, Core: 0, Chan: -1, Bank: -1},
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range events {
			p.Publish(ev)
		}
	}); allocs != 0 {
		t.Fatalf("publishing %d events allocates %.1f objects, want 0", len(events), allocs)
	}
	if tr.Recorded() == 0 || len(tel.Events()) == 0 {
		t.Fatal("the subscribers saw nothing")
	}
}

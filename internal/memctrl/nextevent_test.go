package memctrl

import (
	"testing"

	"padc/internal/dram/refresh"
)

func TestNextEventIdleController(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 8, nil)
	if e := c.NextEvent(10); e != NeverEvent {
		t.Fatalf("idle controller NextEvent = %d, want NeverEvent", e)
	}
}

func TestNextEventQueuedAndInflight(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 8, nil)
	c.Enqueue(req(0, 1, 1, false))
	// A queued request on a ready bank can issue immediately.
	if e := c.NextEvent(0); e != 1 {
		t.Fatalf("ready-bank NextEvent = %d, want 1", e)
	}
	c.Tick(1, 8) // issues the request; the bank goes busy
	if c.Pending() != 0 {
		t.Fatal("request did not issue")
	}
	// The only future event is the in-flight completion; ticking every
	// cycle strictly before it must harvest nothing.
	e := c.NextEvent(1)
	if e == NeverEvent || e <= 1 {
		t.Fatalf("in-flight completion NextEvent = %d", e)
	}
	for now := uint64(2); now < e; now++ {
		if done := c.Tick(now, 8); len(done) != 0 {
			t.Fatalf("completion harvested at %d, before the claimed event %d", now, e)
		}
	}
	if done := c.Tick(e, 8); len(done) != 1 {
		t.Fatalf("no completion at the claimed event cycle %d", e)
	}
	if e := c.NextEvent(e); e != NeverEvent {
		t.Fatalf("drained controller NextEvent = %d, want NeverEvent", e)
	}
}

func TestNextEventBusyBankWake(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 8, nil)
	c.Enqueue(req(0, 1, 1, false))
	c.Tick(1, 8) // first request occupies the bank
	c.Enqueue(req(0, 2, 2, false))
	// The waiting request's event is the bank release; it must be a real
	// cycle and it must not fire early.
	e := c.NextEvent(1)
	if e == NeverEvent || e <= 1 {
		t.Fatalf("busy-bank NextEvent = %d", e)
	}
	pend := c.Pending()
	for now := uint64(2); now < e; now++ {
		c.Tick(now, 8)
		if c.Pending() != pend {
			// The second request issued before the claimed wake-up: the
			// event kernel would have skipped a live cycle.
			t.Fatalf("request issued at %d, before the claimed event %d", now, e)
		}
	}
}

func TestHasPrefetches(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 8, nil)
	if c.HasPrefetches() {
		t.Fatal("empty controller claims prefetches")
	}
	c.Enqueue(req(0, 1, 1, false))
	if c.HasPrefetches() {
		t.Fatal("demand-only controller claims prefetches")
	}
	c.Enqueue(req(0, 2, 2, true))
	if !c.HasPrefetches() {
		t.Fatal("buffered prefetch not reported")
	}
	drain(c, 2)
	if c.HasPrefetches() {
		t.Fatal("drained controller still claims prefetches")
	}
}

func TestNextEventRefresh(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 8, nil)
	eng := refresh.NewEngine(refresh.Config{
		Mode: refresh.PerBank, TREFI: 200, TRFC: 80, TRFCpb: 40, MaxPostpone: 2,
	}, 1)
	c.AttachRefresh(eng)

	// An idle bank with pull-in credit can start a refresh next cycle.
	if e := c.NextEvent(0); e != 1 {
		t.Fatalf("idle refresh NextEvent = %d, want 1", e)
	}
	c.Tick(1, 8)
	if eng.Issued != 1 {
		t.Fatalf("idle pull-in did not start a refresh (issued=%d)", eng.Issued)
	}
	// While refreshing, the next event is the refresh completion (the
	// accrual deadline is much further out); nothing may happen before it.
	e := c.NextEvent(1)
	if e == NeverEvent || e <= 1 {
		t.Fatalf("refreshing NextEvent = %d", e)
	}
	issued := eng.Issued
	for now := uint64(2); now < e; now++ {
		c.Tick(now, 8)
		if eng.Issued != issued {
			t.Fatalf("refresh state changed at %d, before the claimed event %d", now, e)
		}
	}

	// A demand arriving against a refreshing bank makes every cycle live:
	// the per-tick blocked accounting must not be skipped.
	c.Enqueue(req(0, 1, 1, false))
	if eng.Blocked(0, e-1) {
		if got := c.NextEvent(e - 1); got != e {
			t.Fatalf("blocked-with-waiting NextEvent = %d, want next cycle %d", got, e)
		}
	}
}

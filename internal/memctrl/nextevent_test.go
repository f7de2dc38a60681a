package memctrl

import (
	"math/rand"
	"testing"

	"padc/internal/dram"
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

// TestNextEventRefresh holds NextEvent to its promise under both refresh
// modes, which share one fire rule: on a 4-bank channel under seeded
// random traffic, ticked every DRAM tick, no tick strictly inside
// (now, NextEvent(now)) may start a refresh, issue or complete a request,
// or charge a refresh-blocked cycle. NextEvent is re-read only when its
// promise runs out or a request arrives, as the event kernel reads it.
func TestNextEventRefresh(t *testing.T) {
	for _, mode := range []refresh.Mode{refresh.PerBank, refresh.AllBank} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := dram.DefaultConfig()
			cfg.Banks = 4
			c := NewStack(DemandFirst.Stack(), dram.NewChannel(cfg), 16, nil)
			// A far link frees each bank before its access completes, so a
			// refresh waiting on a bank wakes at neither a completion nor
			// an accrual: only the fire rule's prediction names it.
			c.SetLinkLatency(50)
			eng := refresh.NewEngine(testRefreshCfg(mode), cfg.Banks)
			eng.CapDelta(dram.TickEvery)
			c.AttachRefresh(eng)

			// An idle channel with pull-in credit can refresh next cycle.
			if e := c.NextEvent(0); e != 1 {
				t.Fatalf("idle refresh NextEvent = %d, want 1", e)
			}
			rng := rand.New(rand.NewSource(int64(mode)))
			var line, inert uint64
			next := uint64(0)
			for now := dram.TickEvery; now < 40_000; now += dram.TickEvery {
				issued, serviced, blocked := eng.Issued, c.Serviced, eng.BlockedCycles
				done := len(c.Tick(now, diffCores))
				if now < next {
					inert++
					if eng.Issued != issued || c.Serviced != serviced || done != 0 || eng.BlockedCycles != blocked {
						t.Fatalf("tick %d acted before the claimed event %d: refreshes %d->%d, serviced %d->%d, completions %d, blocked %d->%d",
							now, next, issued, eng.Issued, serviced, c.Serviced, done, blocked, eng.BlockedCycles)
					}
					continue
				}
				// Bursts separated by quiet gaps, so refreshes fire forced,
				// due and pulled in.
				if (now/4000)%2 == 0 && rng.Intn(2) == 0 {
					for n := 1 + rng.Intn(3); n > 0; n-- {
						line++
						c.Enqueue(&Request{
							Core: rng.Intn(diffCores), Line: line, Arrival: now,
							Addr: dram.Address{Bank: rng.Intn(cfg.Banks), Row: uint64(rng.Intn(4))},
						})
					}
				}
				next = c.NextEvent(now)
			}
			if eng.Forced == 0 || eng.PulledIn == 0 || eng.Issued == eng.Forced+eng.PulledIn {
				t.Fatalf("traffic did not reach every fire path: issued=%d forced=%d pulled-in=%d",
					eng.Issued, eng.Forced, eng.PulledIn)
			}
			if inert == 0 {
				t.Fatal("NextEvent never promised an inert tick, so nothing was checked")
			}
			if err := eng.Audit(40_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

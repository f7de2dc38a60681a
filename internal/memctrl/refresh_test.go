package memctrl

import (
	"testing"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl/sched"
	"padc/internal/telemetry"
)

// testRefreshCfg shrinks the refresh timing so a short test accrues many
// obligations.
func testRefreshCfg(mode refresh.Mode) refresh.Config {
	return refresh.Config{Mode: mode, TREFI: 500, TRFC: 100, TRFCpb: 60, MaxPostpone: 2}
}

// tickRange ticks the controller every 4 cycles over [0, end).
func tickRange(c *Controller, end uint64) {
	for now := uint64(0); now < end; now += 4 {
		c.Tick(now, 4)
	}
}

func TestRefreshIdlePullInConservation(t *testing.T) {
	for _, mode := range []refresh.Mode{refresh.PerBank, refresh.AllBank} {
		cfg := dram.DefaultConfig()
		cfg.Banks = 4
		ch := dram.NewChannel(cfg)
		c := NewStack(DemandPrefEqual.Stack(), ch, 16, nil)
		eng := refresh.NewEngine(testRefreshCfg(mode), cfg.Banks)
		c.AttachRefresh(eng)
		if c.NextEvent(0) == NeverEvent {
			t.Fatalf("%v: an idle controller with a refresh engine must name its next event", mode)
		}

		end := uint64(10_000)
		tickRange(c, end)
		if err := eng.Audit(end); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Idle banks pull refreshes in ahead of schedule, so every elapsed
		// window is covered and some credits are banked.
		units := 1
		if mode == refresh.PerBank {
			units = cfg.Banks
		}
		windows := end / 500 * uint64(units)
		if eng.Issued < windows {
			t.Fatalf("%v: issued %d refreshes, %d windows elapsed on an idle channel", mode, eng.Issued, windows)
		}
		if eng.PulledIn == 0 {
			t.Fatalf("%v: an idle channel should pull refreshes in early", mode)
		}
		if eng.Forced != 0 || eng.BlockedCycles != 0 {
			t.Fatalf("%v: idle channel saw forced=%d blocked=%d", mode, eng.Forced, eng.BlockedCycles)
		}
		wantCh := eng.Issued
		if mode == refresh.AllBank {
			wantCh *= uint64(cfg.Banks) // one rank refresh touches every bank
		}
		if ch.Refreshes != wantCh {
			t.Fatalf("%v: channel recorded %d bank refreshes, engine issued %d", mode, ch.Refreshes, eng.Issued)
		}
	}
}

// loadBank keeps bank 0 saturated with demand requests while ticking, so
// no idle gap ever opens and refreshes can only postpone or force.
func loadBank(c *Controller, end uint64) {
	line := uint64(0)
	for now := uint64(0); now < end; now += 4 {
		for c.Pending() < 4 && !c.Full() {
			line++
			c.Enqueue(&Request{
				Core: 0, Line: line,
				Addr:    dram.Address{Bank: 0, Row: line % 2},
				Arrival: now,
			})
		}
		c.Tick(now, 1)
	}
}

func TestRefreshForcedDeadlineUnderLoad(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	ch := dram.NewChannel(cfg)
	c := NewStack(DemandPrefEqual.Stack(), ch, 16, nil)
	eng := refresh.NewEngine(testRefreshCfg(refresh.PerBank), cfg.Banks)
	c.AttachRefresh(eng)

	end := uint64(20_000)
	loadBank(c, end)
	if err := eng.Audit(end); err != nil {
		t.Fatal(err)
	}
	if eng.Forced == 0 {
		t.Fatal("a saturated bank must hit the forced-refresh deadline")
	}
	if eng.Postponed == 0 {
		t.Fatal("a saturated bank must postpone refreshes first")
	}
	if eng.BlockedCycles == 0 {
		t.Fatal("forced refreshes over waiting requests must account blocked cycles")
	}
	if eng.PulledIn != 0 {
		t.Fatalf("a saturated bank pulled in %d refreshes early", eng.PulledIn)
	}
	// Conservation under load: issued tracks elapsed windows within the
	// credit band.
	windows := int64(end / 500)
	if diff := windows - int64(eng.Issued); diff < -2 || diff > 2 {
		t.Fatalf("issued %d refreshes, %d windows elapsed: outside the +/-2 credit band", eng.Issued, windows)
	}
}

func TestRefreshRuleWinsArbitration(t *testing.T) {
	// With "refresh" at the top of the stack, a due refresh preempts
	// waiting requests immediately instead of waiting for the deadline.
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	ch := dram.NewChannel(cfg)
	c := NewStack(sched.MustParse("rules:refresh,rowhit,fcfs"), ch, 16, nil)
	eng := refresh.NewEngine(testRefreshCfg(refresh.PerBank), cfg.Banks)
	c.AttachRefresh(eng)

	c.Enqueue(&Request{Core: 0, Line: 1, Addr: dram.Address{Bank: 0, Row: 0}})
	c.Enqueue(&Request{Core: 0, Line: 2, Addr: dram.Address{Bank: 0, Row: 1}})
	// First obligation accrues at TREFI (bank 0 of 1 unit): tick just past it.
	c.Tick(504, 1)
	if eng.Issued != 1 || c.Serviced != 0 {
		t.Fatalf("refresh-first stack issued %d refreshes, %d requests; want the refresh to win", eng.Issued, c.Serviced)
	}
	if ch.Refreshes != 1 {
		t.Fatalf("channel saw %d refreshes, want 1", ch.Refreshes)
	}
	// Once the refresh window passes, the requests proceed.
	c.Tick(504+60, 1)
	if c.Serviced != 1 {
		t.Fatalf("request did not issue after the refresh window (serviced=%d)", c.Serviced)
	}
}

func TestRefreshRuleYieldsToHigherRules(t *testing.T) {
	// With "refresh" below "rowhit", a row-hit request beats the due
	// refresh; the refresh then lands in the idle gap that follows.
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	ch := dram.NewChannel(cfg)
	c := NewStack(sched.MustParse("rules:rowhit,refresh,fcfs"), ch, 16, nil)
	eng := refresh.NewEngine(testRefreshCfg(refresh.PerBank), cfg.Banks)
	c.AttachRefresh(eng)

	// Open row 3, then queue a hit to it.
	c.Enqueue(&Request{Core: 0, Line: 1, Addr: dram.Address{Bank: 0, Row: 3}})
	c.Tick(0, 1)
	c.Enqueue(&Request{Core: 0, Line: 2, Addr: dram.Address{Bank: 0, Row: 3}, Arrival: 400})
	// Find the first tick past the obligation where the bank is ready.
	now := uint64(504)
	for !ch.BankReady(0, now) {
		now += 4
	}
	c.Tick(now, 1)
	if c.Serviced != 2 || eng.Issued != 0 {
		t.Fatalf("row-hit should outrank the due refresh (serviced=%d refreshes=%d)", c.Serviced, eng.Issued)
	}
}

func TestRefreshAllBankDrainsThenBlocksAllBanks(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 4
	ch := dram.NewChannel(cfg)
	c := NewStack(DemandPrefEqual.Stack(), ch, 32, nil)
	eng := refresh.NewEngine(testRefreshCfg(refresh.AllBank), cfg.Banks)
	c.AttachRefresh(eng)

	end := uint64(20_000)
	line := uint64(0)
	for now := uint64(0); now < end; now += 4 {
		for c.Pending() < 8 && !c.Full() {
			line++
			c.Enqueue(&Request{
				Core: 0, Line: line,
				Addr:    dram.Address{Bank: int(line) % cfg.Banks, Row: line % 2},
				Arrival: now,
			})
		}
		c.Tick(now, 1)
	}
	if err := eng.Audit(end); err != nil {
		t.Fatal(err)
	}
	if eng.Issued == 0 {
		t.Fatal("no all-bank refresh issued under load")
	}
	if eng.Forced == 0 {
		t.Fatal("a saturated channel must reach the all-bank forced deadline")
	}
	if ch.Refreshes != eng.Issued*uint64(cfg.Banks) {
		t.Fatalf("channel bank-refreshes %d != issued %d x %d banks", ch.Refreshes, eng.Issued, cfg.Banks)
	}
	if eng.BlockedCycles == 0 {
		t.Fatal("rank-wide refreshes over pending work must account blocked cycles")
	}
}

func TestRefreshInstrumentRegistersCounters(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 2
	ch := dram.NewChannel(cfg)
	c := NewStack(DemandPrefEqual.Stack(), ch, 16, nil)
	c.AttachRefresh(refresh.NewEngine(testRefreshCfg(refresh.PerBank), cfg.Banks))
	tel := telemetry.New(telemetry.Options{})
	c.Instrument(tel, 0)
	tickRange(c, 5_000)
	for _, name := range []string{
		"dram0/refreshes_issued", "dram0/refreshes_postponed",
		"dram0/refreshes_pulled_in", "dram0/refreshes_forced",
		"dram0/refresh_blocked_cycles",
	} {
		if _, ok := tel.Value(name); !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
	if v, _ := tel.Value("dram0/refreshes_issued"); v == 0 {
		t.Error("refreshes_issued stayed zero on an idle ticking controller")
	}
}

func TestAttachRefreshIgnoresDisabledEngines(t *testing.T) {
	c := NewStack(DemandPrefEqual.Stack(), oneBank(), 16, nil)
	c.AttachRefresh(nil)
	c.AttachRefresh(refresh.NewEngine(refresh.Config{Mode: refresh.Off}, 1))
	if c.NextEvent(0) != NeverEvent || c.Refresh() != nil {
		t.Fatal("disabled engines must leave refresh off")
	}
}

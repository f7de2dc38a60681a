package refresh

import "testing"

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": Off, "off": Off, "per-bank": PerBank, "all-bank": AllBank} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("rank-level"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("refresh off with zero timings rejected: %v", err)
	}
	// Timings are read as written: a mode with zero timings cannot run.
	for name, mod := range map[string]func(*Config){
		"mode only":       func(c *Config) { *c = Config{Mode: c.Mode} },
		"zero tRFC":       func(c *Config) { c.TRFC = 0 },
		"zero tRFCpb":     func(c *Config) { c.TRFCpb = 0 },
		"tRFC >= tREFI":   func(c *Config) { c.TREFI = c.TRFC },
		"tRFCpb >= tREFI": func(c *Config) { c.TRFC, c.TREFI = 1, c.TRFCpb },
		"no postpone":     func(c *Config) { c.MaxPostpone = 0 },
		"unknown mode":    func(c *Config) { c.Mode = AllBank + 1 },
	} {
		for _, mode := range []Mode{PerBank, AllBank} {
			c := DefaultConfig()
			c.Mode = mode
			if err := c.Validate(); err != nil {
				t.Fatalf("default %v timing invalid: %v", mode, err)
			}
			mod(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("%s (%v): %+v accepted", name, mode, c)
			}
		}
	}
}

// drive advances the engine to now, issuing refreshes per the policy fn.
func drive(e *Engine, banks int, upto uint64, step uint64, issue func(now uint64)) {
	for now := step; now <= upto; now += step {
		e.Advance(now)
		issue(now)
	}
}

func TestConservationEagerIssue(t *testing.T) {
	// A controller that refreshes whenever due must issue exactly one
	// refresh per elapsed tREFI window per unit.
	for _, mode := range []Mode{PerBank, AllBank} {
		cfg := Config{Mode: mode, TREFI: 1000, TRFC: 100, TRFCpb: 50, MaxPostpone: 8}
		e := NewEngine(cfg, 4)
		end := uint64(100_000)
		drive(e, 4, end, 10, func(now uint64) {
			for b := 0; b < 4; b++ {
				if e.Due(b, now) && !e.Refreshing(b, now) {
					e.Start(b, now)
				}
			}
		})
		if err := e.Audit(end); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		wantPerUnit := end / cfg.TREFI // +-1 for stagger
		for ui, u := range e.units {
			if u.Issued < wantPerUnit-1 || u.Issued > wantPerUnit+1 {
				t.Errorf("%v unit %d: issued %d, want ~%d", mode, ui, u.Issued, wantPerUnit)
			}
		}
		if e.Postponed != 0 || e.PulledIn != 0 || e.Forced != 0 {
			t.Errorf("%v: eager issue should not postpone/pull-in/force: %d/%d/%d",
				mode, e.Postponed, e.PulledIn, e.Forced)
		}
	}
}

func TestPostponeCreditsAndForcedDeadline(t *testing.T) {
	// A controller that never volunteers a refresh accumulates postpones
	// until MustRefresh fires at the credit limit; servicing only forced
	// refreshes keeps every unit inside the +-8 band forever.
	cfg := Config{Mode: PerBank, TREFI: 1000, TRFCpb: 50, MaxPostpone: 8}
	e := NewEngine(cfg, 2)
	sawForced := false
	end := uint64(200_000)
	drive(e, 2, end, 10, func(now uint64) {
		for b := 0; b < 2; b++ {
			if e.MustRefresh(b) && !e.Refreshing(b, now) {
				sawForced = true
				if !e.Blocked(b, now) {
					t.Fatal("MustRefresh unit not Blocked")
				}
				e.Start(b, now)
			}
		}
	})
	if !sawForced {
		t.Fatal("forced-refresh deadline never fired")
	}
	if e.Forced == 0 || e.Postponed == 0 {
		t.Fatalf("expected forced and postponed counts, got forced=%d postponed=%d", e.Forced, e.Postponed)
	}
	if err := e.Audit(end); err != nil {
		t.Fatal(err)
	}
}

func TestPullInCreditsBounded(t *testing.T) {
	// A controller that refreshes at every opportunity (idle machine)
	// banks pull-in credits but never more than MaxPostpone ahead.
	cfg := Config{Mode: PerBank, TREFI: 1000, TRFCpb: 50, MaxPostpone: 8}
	e := NewEngine(cfg, 1)
	drive(e, 1, 50_000, 10, func(now uint64) {
		if !e.Refreshing(0, now) && (e.Due(0, now) || e.CanPullIn(0)) {
			e.Start(0, now)
		}
	})
	if e.PulledIn == 0 {
		t.Fatal("idle issue never pulled a refresh in")
	}
	u := e.units[0]
	if u.Owed < -cfg.MaxPostpone {
		t.Fatalf("pulled in past the credit window: owed %d", u.Owed)
	}
	if err := e.Audit(50_000); err != nil {
		t.Fatal(err)
	}
}

func TestAllBankSharesOneUnit(t *testing.T) {
	e := NewEngine(Config{Mode: AllBank, TREFI: 1000, TRFC: 100, MaxPostpone: 8}, 8)
	e.Advance(1500)
	if !e.Due(0, 1500) || !e.Due(7, 1500) {
		t.Fatal("all banks should share the rank obligation")
	}
	until := e.Start(3, 1500)
	if until != 1600 {
		t.Fatalf("refresh until %d, want 1600", until)
	}
	for b := 0; b < 8; b++ {
		if !e.Refreshing(b, 1599) {
			t.Fatalf("bank %d not refreshing during all-bank refresh", b)
		}
	}
}

func TestNoteBlockedUsesAdvanceDelta(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = PerBank
	e := NewEngine(cfg, 1)
	e.Advance(4)
	e.NoteBlocked()
	e.Advance(8)
	e.NoteBlocked()
	e.NoteBlocked() // two banks blocked in the same tick
	if e.BlockedCycles != 4+4+4 {
		t.Fatalf("blocked cycles %d, want 12", e.BlockedCycles)
	}
}

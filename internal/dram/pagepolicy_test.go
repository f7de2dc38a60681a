package dram

import "testing"

func TestParsePagePolicy(t *testing.T) {
	for s, want := range map[string]PagePolicy{
		"": OpenPage, "open": OpenPage, "closed": ClosedPage, "adaptive": AdaptivePage,
	} {
		got, err := ParsePagePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePagePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePagePolicy("auto"); err == nil {
		t.Error("unknown page policy accepted")
	}
}

// issueAll drives one bank through the row sequence and returns the
// observed states.
func issueAll(ch *Channel, rows []uint64) []RowState {
	var states []RowState
	now := uint64(0)
	for _, r := range rows {
		for !ch.BankReady(0, now) {
			now++
		}
		_, st := ch.Issue(0, r, now, false)
		states = append(states, st)
	}
	return states
}

func TestAdaptivePageLearnsStreams(t *testing.T) {
	// A row-hit-heavy stream must keep the predictor voting open, so the
	// adaptive policy converges to open-page behavior: hits everywhere
	// after the first access.
	cfg := DefaultConfig()
	cfg.Page = AdaptivePage
	ch := NewChannel(cfg)
	rows := make([]uint64, 32)
	states := issueAll(ch, rows) // same row throughout
	for i, st := range states[1:] {
		if st != RowHit {
			t.Fatalf("access %d: %v, want row-hit under a hit-heavy stream", i+1, st)
		}
	}
	if ch.PredCloses != 0 {
		t.Fatalf("predictor closed %d times on a pure stream", ch.PredCloses)
	}
}

func TestAdaptivePageLearnsConflicts(t *testing.T) {
	// An alternating-row pattern is all conflicts under open-page; the
	// predictor must learn to precharge, converting the tail of the
	// sequence from row-conflicts into cheaper row-closed accesses.
	cfg := DefaultConfig()
	cfg.Page = AdaptivePage
	ch := NewChannel(cfg)
	rows := make([]uint64, 40)
	for i := range rows {
		rows[i] = uint64(i % 2) // A, B, A, B, ...
	}
	states := issueAll(ch, rows)
	tail := states[len(states)-8:]
	for i, st := range tail {
		if st == RowConflict {
			t.Fatalf("tail access %d still a row-conflict; predictor never learned to close", i)
		}
	}
	if ch.PredCloses == 0 {
		t.Fatal("predictor never chose to precharge")
	}

	// The same pattern under open-page is conflicts throughout — the
	// predictor must strictly beat it on conflict count.
	open := NewChannel(DefaultConfig())
	issueAll(open, rows)
	_, _, openConf := open.Counts()
	_, _, adConf := ch.Counts()
	if adConf >= openConf {
		t.Fatalf("adaptive saw %d conflicts, open-page %d; predictor should win", adConf, openConf)
	}
}

func TestChannelRefreshClosesRowAndBlocksBank(t *testing.T) {
	cfg := DefaultConfig()
	ch := NewChannel(cfg)
	ch.Issue(0, 7, 0, false)
	if ch.Banks[0].OpenRow != 7 {
		t.Fatal("row should be open after the access")
	}
	pre := ch.Precharges
	ch.Refresh(0, 1_000)
	if ch.Banks[0].OpenRow != -1 {
		t.Fatal("refresh must precharge the open row")
	}
	if ch.Precharges != pre+1 {
		t.Fatal("refresh of an open row must count a precharge")
	}
	if ch.BankReady(0, 999) || !ch.BankReady(0, 1_000) {
		t.Fatal("bank must be blocked exactly through the refresh window")
	}
	if ch.Refreshes != 1 {
		t.Fatalf("Refreshes = %d, want 1", ch.Refreshes)
	}
}

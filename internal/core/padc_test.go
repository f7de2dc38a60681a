package core

import (
	"testing"
	"testing/quick"
)

func TestAccuracyMetering(t *testing.T) {
	p := New(2, DefaultConfig())
	// Optimistic before any measurement.
	if !p.PrefetchCritical(0) {
		t.Fatal("cold PAR should be optimistic")
	}
	for i := 0; i < 10; i++ {
		p.NoteSent(0, 0)
	}
	for i := 0; i < 9; i++ {
		p.NoteUsed(0, 0)
	}
	for i := 0; i < 10; i++ {
		p.NoteSent(0, 1)
	}
	p.NoteUsed(0, 1)
	p.EndInterval(0)
	if got := p.AccuracyIn(0, 0); got != 0.9 {
		t.Fatalf("core 0 PAR=%v", got)
	}
	if got := p.AccuracyIn(0, 1); got != 0.1 {
		t.Fatalf("core 1 PAR=%v", got)
	}
	if !p.PrefetchCritical(0) || p.PrefetchCritical(1) {
		t.Fatal("promotion threshold misapplied")
	}
}

func TestIntervalResetAndRetention(t *testing.T) {
	p := New(1, DefaultConfig())
	p.NoteSent(0, 0)
	p.EndInterval(0)
	if p.AccuracyIn(0, 0) != 0 {
		t.Fatalf("0 used / 1 sent should give PAR 0, got %v", p.AccuracyIn(0, 0))
	}
	// An interval with no prefetches keeps the previous PAR.
	p.EndInterval(0)
	if p.AccuracyIn(0, 0) != 0 {
		t.Fatal("idle interval should retain PAR")
	}
}

func TestPARClamped(t *testing.T) {
	p := New(1, DefaultConfig())
	p.NoteSent(0, 0)
	// Cross-interval uses can push PUC above PSC; PAR must clamp at 1.
	p.NoteUsed(0, 0)
	p.NoteUsed(0, 0)
	p.NoteUsed(0, 0)
	p.EndInterval(0)
	if p.AccuracyIn(0, 0) != 1 {
		t.Fatalf("PAR should clamp to 1, got %v", p.AccuracyIn(0, 0))
	}
}

func TestDropThresholdLadder(t *testing.T) {
	p := New(1, DefaultConfig())
	set := func(used, sent int) {
		for i := 0; i < sent; i++ {
			p.NoteSent(0, 0)
		}
		for i := 0; i < used; i++ {
			p.NoteUsed(0, 0)
		}
		p.EndInterval(0)
	}
	cases := []struct {
		used, sent int
		want       uint64
	}{
		{1, 100, 100},       // 1% -> 100 cycles
		{20, 100, 1_500},    // 20% -> 1,500
		{50, 100, 50_000},   // 50% -> 50,000
		{90, 100, 100_000},  // 90% -> 100,000
		{100, 100, 100_000}, // 100% stays at the top band
	}
	for _, c := range cases {
		set(c.used, c.sent)
		if got := p.DropThresholdIn(0, 0); got != c.want {
			t.Errorf("acc %d%%: drop threshold %d, want %d", c.used, got, c.want)
		}
	}
}

func TestDisabledMechanisms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableAPD, cfg.EnableUrgency = false, false
	p := New(1, cfg)
	if p.DropThresholdIn(0, 0) != ^uint64(0) {
		t.Fatal("APD disabled should never drop")
	}
	if p.UrgencyEnabled() {
		t.Fatal("urgency flag wrong")
	}
}

// TestPromotionThresholdAsWritten pins that a threshold of 0 reaches the
// meters unchanged: every core is critical, even one whose measured
// accuracy is 0, and a threshold above 1 promotes none.
func TestPromotionThresholdAsWritten(t *testing.T) {
	for _, c := range []struct {
		threshold float64
		critical  bool
	}{{0, true}, {-1, true}, {1.5, false}} {
		cfg := DefaultConfig()
		cfg.PromotionThreshold = c.threshold
		p := New(1, cfg)
		p.NoteSent(0, 0)
		p.EndInterval(0)
		if p.AccuracyIn(0, 0) != 0 {
			t.Fatalf("0 used / 1 sent should give PAR 0, got %v", p.AccuracyIn(0, 0))
		}
		if got := p.PrefetchCritical(0); got != c.critical {
			t.Errorf("threshold %v: a core at accuracy 0 is critical=%v, want %v", c.threshold, got, c.critical)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	noLadder := DefaultConfig()
	noLadder.DropLadder = nil
	if noLadder.Validate() == nil {
		t.Error("APD without a ladder accepted")
	}
	// Without APD the ladder is never read.
	noLadder.EnableAPD = false
	if err := noLadder.Validate(); err != nil {
		t.Errorf("APD off with no ladder rejected: %v", err)
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	// The paper's 4-core system: 8192 L2 lines per core, 128 buffer slots.
	h := HardwareCost{Cores: 4, CacheLines: 8192, BufferSlots: 128, L2CacheBytes: 512 << 10}
	if got := h.TotalBits(); got != 34720 {
		t.Fatalf("total bits %d, paper says 34,720", got)
	}
	if got := h.TotalBitsWithoutP(); got != 1824 {
		t.Fatalf("without P bits %d, paper says 1,824", got)
	}
	frac := h.FractionOfL2()
	if frac < 0.001 || frac > 0.003 {
		t.Fatalf("fraction of L2 %.4f, paper says ~0.2%%", frac)
	}
}

func TestHardwareCostMonotonic(t *testing.T) {
	f := func(cores8 uint8, lines uint16, slots uint8) bool {
		cores := int(cores8%8) + 1
		h := HardwareCost{Cores: cores, CacheLines: uint64(lines) + 1, BufferSlots: int(slots) + 1}
		bigger := h
		bigger.BufferSlots++
		return bigger.TotalBits() > h.TotalBits() && h.TotalBitsWithoutP() < h.TotalBits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

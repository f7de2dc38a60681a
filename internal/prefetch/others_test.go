package prefetch

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestStrideDetection(t *testing.T) {
	s := NewStride(StrideConfig{})
	pc := uint64(0x400)
	var got []uint64
	for i := uint64(0); i < 5; i++ {
		got = s.Observe(AccessEvent{LineAddr: 100 + 3*i, PC: pc, Miss: true}, 64)
	}
	if len(got) != 4 {
		t.Fatalf("confirmed stride should prefetch degree lines: %v", got)
	}
	for i, a := range got {
		if want := 100 + 3*4 + 3*uint64(i+1); a != want {
			t.Fatalf("stride target %d: got %d want %d", i, a, want)
		}
	}
}

func TestStrideRejectsIrregular(t *testing.T) {
	s := NewStride(StrideConfig{})
	addrs := []uint64{100, 107, 109, 150, 151, 300}
	for _, a := range addrs {
		if got := s.Observe(AccessEvent{LineAddr: a, PC: 7, Miss: true}, 64); len(got) != 0 {
			t.Fatalf("irregular pattern prefetched: %v", got)
		}
	}
}

func TestStrideSeparatesPCs(t *testing.T) {
	s := NewStride(StrideConfig{})
	// Interleave two PCs with different strides; both should confirm. The
	// second Observe reuses the buffer the first returned, so keep a copy.
	var gotA, gotB []uint64
	for i := uint64(0); i < 5; i++ {
		gotA = slices.Clone(s.Observe(AccessEvent{LineAddr: 10 + 2*i, PC: 1, Miss: true}, 64))
		gotB = s.Observe(AccessEvent{LineAddr: 1000 + 5*i, PC: 2, Miss: true}, 64)
	}
	if len(gotA) == 0 || len(gotB) == 0 {
		t.Fatalf("per-PC streams not detected: %v %v", gotA, gotB)
	}
	if gotA[0] != 10+2*4+2 || gotB[0] != 1000+5*4+5 {
		t.Fatalf("wrong stride targets: %v %v", gotA, gotB)
	}
}

func TestCDCDeltaCorrelation(t *testing.T) {
	c := NewCDC(CDCConfig{})
	// Repeating delta pattern +1,+1,+3 within one zone.
	deltas := []int64{1, 1, 3, 1, 1, 3, 1, 1}
	addr := uint64(5000)
	var got []uint64
	for _, d := range deltas {
		addr += uint64(d)
		got = c.Observe(AccessEvent{LineAddr: addr, Miss: true}, 64)
	}
	if len(got) == 0 {
		t.Fatal("periodic delta pattern not detected")
	}
	// After ...,1,1 the history predicts +3 next.
	if got[0] != addr+3 {
		t.Fatalf("first prediction should follow the pattern: got %d want %d", got[0], addr+3)
	}
}

func TestCDCZoneIsolation(t *testing.T) {
	c := NewCDC(CDCConfig{CZoneLines: 1024})
	// Accesses in different zones never correlate.
	for i := uint64(0); i < 8; i++ {
		if got := c.Observe(AccessEvent{LineAddr: i * 10_000, Miss: true}, 64); len(got) != 0 {
			t.Fatalf("cross-zone correlation: %v", got)
		}
	}
}

func TestCDCIgnoresHits(t *testing.T) {
	c := NewCDC(CDCConfig{})
	for i := uint64(0); i < 10; i++ {
		if got := c.Observe(AccessEvent{LineAddr: 100 + i, Miss: false}, 64); len(got) != 0 {
			t.Fatalf("hits trained C/DC: %v", got)
		}
	}
}

func TestMarkovLearnsSuccessors(t *testing.T) {
	m := NewMarkov(MarkovConfig{})
	seq := []uint64{10, 77, 10, 77, 10}
	var got []uint64
	for _, a := range seq {
		got = m.Observe(AccessEvent{LineAddr: a, Miss: true}, 64)
	}
	if len(got) != 1 || got[0] != 77 {
		t.Fatalf("markov should predict 77 after 10: %v", got)
	}
}

func TestMarkovMultipleSuccessors(t *testing.T) {
	m := NewMarkov(MarkovConfig{Successors: 2})
	for _, a := range []uint64{1, 2, 1, 3, 1} {
		m.Observe(AccessEvent{LineAddr: a, Miss: true}, 64)
	}
	got := m.Observe(AccessEvent{LineAddr: 1, Miss: true}, 64)
	if len(got) != 2 {
		t.Fatalf("both successors should be prefetched: %v", got)
	}
}

func TestMarkovBudget(t *testing.T) {
	m := NewMarkov(MarkovConfig{Successors: 2})
	for _, a := range []uint64{1, 2, 1, 3, 1} {
		m.Observe(AccessEvent{LineAddr: a, Miss: true}, 64)
	}
	if got := m.Observe(AccessEvent{LineAddr: 1, Miss: true}, 1); len(got) != 1 {
		t.Fatalf("budget 1 must cap output: %v", got)
	}
}

// fixedPF always proposes the same candidate: DDPF filtering is defined
// over recurring prefetch targets.
type fixedPF struct{ line uint64 }

func (f fixedPF) Name() string                      { return "fixed" }
func (f fixedPF) Observe(AccessEvent, int) []uint64 { return []uint64{f.line} }

func TestDDPFFiltersUseless(t *testing.T) {
	d := NewDDPF(fixedPF{line: 42})
	if got := d.Observe(AccessEvent{}, 64); len(got) != 1 {
		t.Fatalf("cold DDPF should pass prefetches: %v", got)
	}
	for i := 0; i < 4; i++ {
		d.Feedback(42, false)
	}
	if got := d.Observe(AccessEvent{}, 64); len(got) != 0 {
		t.Fatalf("persistently useless target should be filtered: %v", got)
	}
	if d.Filtered == 0 {
		t.Fatal("filter counter not incremented")
	}
	// Useful feedback rehabilitates the target.
	for i := 0; i < 4; i++ {
		d.Feedback(42, true)
	}
	if got := d.Observe(AccessEvent{}, 64); len(got) != 1 {
		t.Fatalf("rehabilitated target should pass: %v", got)
	}
}

func TestFDPThrottlesDown(t *testing.T) {
	inner := NewStream(StreamConfig{})
	f := NewFDP(inner)
	start := f.level
	// A low-accuracy interval must lower aggressiveness.
	for i := 0; i < 100; i++ {
		f.CountSent()
	}
	f.CountUseful()
	f.EndInterval(100)
	if f.level >= start {
		t.Fatalf("low accuracy should throttle down: %d -> %d", start, f.level)
	}
}

func TestFDPRampsUpWhenAccurateAndLate(t *testing.T) {
	inner := NewStream(StreamConfig{})
	f := NewFDP(inner)
	start := f.level
	for i := 0; i < 100; i++ {
		f.CountSent()
		f.CountUseful()
	}
	for i := 0; i < 10; i++ {
		f.CountLate()
	}
	f.EndInterval(100)
	if f.level <= start {
		t.Fatalf("accurate+late should ramp up: %d -> %d", start, f.level)
	}
}

func TestFDPPollutionThrottles(t *testing.T) {
	inner := NewStream(StreamConfig{})
	f := NewFDP(inner)
	start := f.level
	for i := 0; i < 100; i++ {
		f.CountSent()
		f.CountUseful()
	}
	// Heavy pollution despite perfect accuracy.
	for i := uint64(0); i < 50; i++ {
		f.NoteEviction(i)
		f.NoteDemandMiss(i)
	}
	f.EndInterval(100)
	if f.level >= start {
		t.Fatalf("pollution should throttle down: %d -> %d", start, f.level)
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	mk := map[string]func() Prefetcher{
		"stream":  func() Prefetcher { return NewStream(StreamConfig{}) },
		"stride":  func() Prefetcher { return NewStride(StrideConfig{}) },
		"cdc":     func() Prefetcher { return NewCDC(CDCConfig{}) },
		"markov":  func() Prefetcher { return NewMarkov(MarkovConfig{}) },
		"ddpf":    func() Prefetcher { return NewDDPF(NewStream(StreamConfig{})) },
		"fdp":     func() Prefetcher { return NewFDP(NewStream(StreamConfig{})) },
		"dspatch": func() Prefetcher { return NewDSPatch(DSPatchConfig{}) },
	}
	for name, ctor := range mk {
		p := ctor()
		f := func(addr uint16, miss bool, budget uint8) bool {
			b := int(budget % 8)
			got := p.Observe(AccessEvent{LineAddr: uint64(addr), PC: uint64(addr) % 7, Miss: miss}, b)
			return len(got) <= b
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s violates its budget: %v", name, err)
		}
	}
}

// zoo is every prefetch engine the simulator can build, wrappers
// included.
var zoo = []struct {
	name string
	mk   func() Prefetcher
}{
	{"stream", func() Prefetcher { return NewStream(StreamConfig{}) }},
	{"stride", func() Prefetcher { return NewStride(StrideConfig{}) }},
	{"cdc", func() Prefetcher { return NewCDC(CDCConfig{}) }},
	{"markov", func() Prefetcher { return NewMarkov(MarkovConfig{}) }},
	{"ddpf", func() Prefetcher { return NewDDPF(NewStream(StreamConfig{})) }},
	{"fdp", func() Prefetcher { return NewFDP(NewStream(StreamConfig{})) }},
	// A 4-entry page buffer so regular multi-stream traffic actually
	// evicts regions: eviction is what trains DSPatch's signature table.
	{"dspatch", func() Prefetcher { return NewDSPatch(DSPatchConfig{Pages: 4}) }},
}

// TestZooEdgeCases sweeps every prefetcher in the zoo through the shared
// edge cases: a full prefetch queue (budget 0), a single free slot, the
// degree/budget cap under a large budget, and the zero line address. The
// properties are engine-independent: output length never exceeds the
// budget, a full queue emits nothing, one Observe never proposes
// duplicates, and the trigger line is never its own prefetch.
func TestZooEdgeCases(t *testing.T) {
	// Enough regular traffic to confirm any engine's pattern detector:
	// three interleaved unit-stride streams, each crossing four 64-line
	// regions, replayed twice (Markov needs recurring successors; DSPatch
	// needs region turnover to train and a warm signature to predict).
	drill := func(visit func(ev AccessEvent)) {
		for pass := 0; pass < 2; pass++ {
			for i := uint64(0); i < 768; i++ {
				visit(AccessEvent{LineAddr: (i%3)*16384 + i/3, PC: 0x40 + i%3, Miss: true})
			}
		}
	}
	for _, z := range zoo {
		z := z
		t.Run(z.name+"/queue-full", func(t *testing.T) {
			p := z.mk()
			drill(func(ev AccessEvent) {
				if got := p.Observe(ev, 0); len(got) != 0 {
					t.Fatalf("budget 0 must suppress all prefetches, got %v", got)
				}
			})
		})
		t.Run(z.name+"/single-slot", func(t *testing.T) {
			p := z.mk()
			drill(func(ev AccessEvent) {
				if got := p.Observe(ev, 1); len(got) > 1 {
					t.Fatalf("budget 1 exceeded: %v", got)
				}
			})
		})
		t.Run(z.name+"/degree-cap", func(t *testing.T) {
			p := z.mk()
			confirmed := false
			drill(func(ev AccessEvent) {
				got := p.Observe(ev, 64)
				if len(got) > 64 {
					t.Fatalf("budget 64 exceeded: %d candidates", len(got))
				}
				seen := map[uint64]bool{}
				for _, a := range got {
					if a == ev.LineAddr {
						t.Fatalf("prefetcher proposed its own trigger line %d", a)
					}
					if seen[a] {
						t.Fatalf("duplicate candidate %d in one Observe", a)
					}
					seen[a] = true
				}
				if len(got) > 0 {
					confirmed = true
				}
			})
			if !confirmed {
				t.Fatal("regular streams never confirmed a prefetch")
			}
		})
		t.Run(z.name+"/zero-address", func(t *testing.T) {
			p := z.mk()
			// Line 0 as trigger, neighbor, and recurring successor: the
			// engines must treat it as an ordinary line, not a sentinel.
			for pass := 0; pass < 3; pass++ {
				for i := uint64(0); i < 8; i++ {
					got := p.Observe(AccessEvent{LineAddr: i, PC: 0x7, Miss: true}, 8)
					if len(got) > 8 {
						t.Fatalf("budget 8 exceeded at line %d: %v", i, got)
					}
				}
				got := p.Observe(AccessEvent{LineAddr: 0, PC: 0x7, Miss: true}, 8)
				if len(got) > 8 {
					t.Fatalf("budget 8 exceeded at line 0: %v", got)
				}
			}
		})
	}
}

// TestObserveSteadyStateAllocs pins the Observe buffer contract: once
// warm, no engine allocates per access. Candidates go into the engine's
// reused buffer, and history tables (CDC delta windows, Markov successor
// lists) are carved from slabs at construction, so replacing an entry
// costs nothing either.
func TestObserveSteadyStateAllocs(t *testing.T) {
	// Three recurring unit-stride loops confirm every pattern detector and
	// give Markov repeating successors; every fourth access is a sweeping
	// walk one CZone apart, so table entries, zones, stream slots and
	// DSPatch regions keep being replaced.
	ev := func(i uint64) AccessEvent {
		s := i % 4
		if s == 3 {
			return AccessEvent{LineAddr: 1<<30 + (i/4)*1031, PC: 0x99, Miss: true}
		}
		return AccessEvent{LineAddr: s*16384 + (i/4)%512, PC: 0x40 + s, Miss: true}
	}
	for _, z := range zoo {
		t.Run(z.name, func(t *testing.T) {
			p := z.mk()
			var i uint64
			emitted := 0
			step := func() {
				i++
				emitted += len(p.Observe(ev(i), 8))
			}
			for k := 0; k < 20_000; k++ {
				step()
			}
			before := emitted
			// One run of many steps: AllocsPerRun truncates its per-run
			// average, which would hide an allocation every few calls.
			if n := testing.AllocsPerRun(1, func() {
				for k := 0; k < 4_000; k++ {
					step()
				}
			}); n != 0 {
				t.Errorf("%v allocations over 4000 steady-state Observe calls, want 0", n)
			}
			if emitted == before {
				t.Fatal("the engine emitted nothing during the measured window")
			}
		})
	}
}

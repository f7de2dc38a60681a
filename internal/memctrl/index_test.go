package memctrl

import (
	"math/rand"
	"testing"

	"padc/internal/dram"
	"padc/internal/telemetry"
)

// Tests for the incrementally-maintained scheduling indexes: the
// per-core outstanding counts behind the §6.5 ranking, the closed-row
// keep-open decision read off the bank's bucket, and the zero-allocation
// guarantee of the Tick hot path.

// auditIndexes recomputes every incremental index by brute force over the
// buckets and inflight list and fails on any disagreement.
func auditIndexes(t *testing.T, c *Controller) {
	t.Helper()
	demand := map[int]int{}
	pref := map[int]int{}
	pending := 0
	for _, bucket := range c.banks {
		for _, r := range bucket {
			pending++
			if r.Prefetch {
				pref[r.Core]++
			} else {
				demand[r.Core]++
			}
		}
	}
	for _, r := range c.inflight {
		if r.Prefetch {
			pref[r.Core]++
		} else {
			demand[r.Core]++
		}
	}
	if pending != c.pending {
		t.Fatalf("pending: index=%d actual=%d", c.pending, pending)
	}
	for core := 0; core < len(c.demandCnt); core++ {
		if c.demandCnt[core] != demand[core] || c.prefCnt[core] != pref[core] {
			t.Fatalf("core %d: index demand=%d pref=%d, actual demand=%d pref=%d",
				core, c.demandCnt[core], c.prefCnt[core], demand[core], pref[core])
		}
		delete(demand, core)
		delete(pref, core)
	}
	for core, n := range demand {
		if n != 0 {
			t.Fatalf("core %d has %d demands but no index slot", core, n)
		}
	}
}

// TestIndexCountConservation drives a random mix of enqueues, promotions,
// drops, ticks and completions and audits the incremental per-core
// counts against a full recomputation after every step.
func TestIndexCountConservation(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 4
	c := NewStack(APSRank.Stack(), dram.NewChannel(cfg), 24, fixedState{critical: map[int]bool{0: true}, urgency: true})
	rng := rand.New(rand.NewSource(42))
	var lineCtr uint64
	type pr struct {
		core int
		line uint64
	}
	var prefs []pr
	threshold := func(*Request) uint64 { return 25 }

	for now := uint64(1); now <= 800; now++ {
		for n := rng.Intn(3); n > 0; n-- {
			lineCtr++
			pref := rng.Intn(2) == 0
			r := &Request{
				Core: rng.Intn(4), Line: lineCtr, Prefetch: pref, WasPref: pref,
				Arrival: now,
				Addr:    dram.Address{Bank: rng.Intn(cfg.Banks), Row: uint64(rng.Intn(3))},
			}
			if c.Enqueue(r) && pref {
				prefs = append(prefs, pr{r.Core, r.Line})
			}
		}
		if len(prefs) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(prefs))
			c.MatchPrefetch(prefs[i].core, prefs[i].line, now)
			prefs[i] = prefs[len(prefs)-1]
			prefs = prefs[:len(prefs)-1]
		}
		if rng.Intn(10) == 0 {
			c.DropExpired(now, threshold)
		}
		c.Tick(now, 4)
		auditIndexes(t, c)
	}
	// Drain completely: all counts must return to zero.
	for now := uint64(801); c.Occupancy() > 0 && now < 100_000; now++ {
		c.Tick(now, 4)
	}
	if c.Occupancy() != 0 {
		t.Fatal("controller failed to drain")
	}
	auditIndexes(t, c)
	for core := range c.demandCnt {
		if c.demandCnt[core] != 0 || c.prefCnt[core] != 0 {
			t.Fatalf("drained controller retains counts for core %d: demand=%d pref=%d",
				core, c.demandCnt[core], c.prefCnt[core])
		}
	}
}

// TestClosedRowKeepOpenBurst is the regression test for the O(1) row-wait
// index replacing moreRowWork's full-buffer scan: under the closed-row
// policy, a same-row burst must keep the row open exactly while more work
// for it is waiting, yielding the same hit/closed sequence as the scan.
func TestClosedRowKeepOpenBurst(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	cfg.Page = dram.ClosedPage
	c := NewStack(DemandPrefEqual.Stack(), dram.NewChannel(cfg), 16, nil)

	mk := func(line, row uint64) *Request {
		return &Request{Line: line, Addr: dram.Address{Bank: 0, Row: row}, Arrival: 0}
	}
	burst := []*Request{mk(1, 5), mk(2, 5), mk(3, 5), mk(4, 9)}
	for _, r := range burst {
		if !c.Enqueue(r) {
			t.Fatal("enqueue failed")
		}
	}

	var states []dram.RowState
	for now := uint64(1); len(states) < len(burst) && now < 10_000; now++ {
		for _, r := range c.Tick(now, 1) {
			states = append(states, r.RowState)
		}
	}
	// Request 1 activates the idle bank (closed); 2 and 3 hit because the
	// keep-open decision sees more row-5 work waiting; after 3 the index
	// holds no more row-5 work, the row closes, and 4 activates a closed
	// bank again. A stale index would turn the hits into closed accesses
	// (undercounting) or the final access into a conflict (overcounting).
	want := []dram.RowState{dram.RowClosed, dram.RowHit, dram.RowHit, dram.RowClosed}
	for i, s := range states {
		if s != want[i] {
			t.Fatalf("row-state sequence %v, want %v", states, want)
		}
	}
	if c.moreRowWork(mk(99, 5)) {
		t.Error("moreRowWork reports waiting row-5 work in a drained controller")
	}
}

// TestRuleWinsAttribution checks the per-rule decision counters: a
// contested arbitration is attributed to the rule that settled it, both
// through RuleWins and the registered telemetry counters.
func TestRuleWinsAttribution(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	c := NewStack(APS.Stack(), oneBank(), 8, fixedState{critical: map[int]bool{}, urgency: false})
	c.Instrument(tel, 0)

	demand := req(0, 1, 7, false)
	pref := req(1, 2, 7, true)
	c.Enqueue(demand)
	c.Enqueue(pref) // same bank: contested, criticality decides
	c.Tick(1, 2)

	names, wins := c.RuleWins()
	byName := map[string]uint64{}
	for i, n := range names {
		byName[n] = wins[i]
	}
	if byName["critical"] != 1 {
		t.Fatalf("critical wins = %d, want 1 (all: %v %v)", byName["critical"], names, wins)
	}
	if v, ok := tel.Value("memctrl0/rule_wins/critical"); !ok || v != 1 {
		t.Fatalf("telemetry rule_wins/critical = %v, %v", v, ok)
	}
	// The remaining request is issued uncontested: no rule is credited.
	drain(c, 1)
	if _, wins2 := c.RuleWins(); sum(wins2) != 1 {
		t.Fatalf("uncontested issue was counted: %v", wins2)
	}
}

func sum(xs []uint64) (s uint64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestTickZeroSteadyStateAllocs asserts the scheduling hot path performs
// no allocations in steady state for every legacy policy (the pre-refactor
// APSRank allocated two rank slices per tick, and every policy allocated a
// fresh completion slice).
func TestTickZeroSteadyStateAllocs(t *testing.T) {
	for _, pol := range []Policy{DemandPrefEqual, DemandFirst, PrefetchFirst, APS, APSRank} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := dram.DefaultConfig()
			ch := dram.NewChannel(cfg)
			c := NewStack(pol.Stack(), ch, 64, benchState{})
			fillController(c, 64, cfg.Banks)
			now := uint64(0)
			for i := 0; i < 256; i++ { // warm buffers, maps and scratch
				now++
				tickSteadyState(c, now, cfg.Banks)
			}
			avg := testing.AllocsPerRun(100, func() {
				now++
				tickSteadyState(c, now, cfg.Banks)
			})
			if avg != 0 {
				t.Errorf("policy %v: %v allocs per steady-state tick, want 0", pol, avg)
			}
		})
	}
}

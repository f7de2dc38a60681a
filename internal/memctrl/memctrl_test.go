package memctrl

import (
	"testing"

	"padc/internal/dram"
	"padc/internal/memctrl/sched"
	"padc/internal/telemetry"
	"padc/internal/telemetry/probe"
)

// fixedState drives the APS predicates in tests.
type fixedState struct {
	critical map[int]bool
	urgency  bool
}

func (s fixedState) PrefetchCritical(core int) bool { return s.critical[core] }
func (s fixedState) UrgencyEnabled() bool           { return s.urgency }

func oneBank() *dram.Channel {
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	return dram.NewChannel(cfg)
}

func req(core int, line uint64, row uint64, prefetch bool) *Request {
	return &Request{
		Core: core, Line: line,
		Addr:     dram.Address{Bank: 0, Row: row},
		Prefetch: prefetch, WasPref: prefetch,
	}
}

// TestPolicyStacks pins each named policy's rule stack, the spelling
// -dump-config's rule_stack and rule-win names print, and ResolveStack's
// choice between the enum and a rules: list.
func TestPolicyStacks(t *testing.T) {
	want := map[Policy]string{
		DemandPrefEqual: "rules:rowhit,fcfs",
		DemandFirst:     "rules:demandfirst,rowhit,fcfs",
		PrefetchFirst:   "rules:prefetchfirst,rowhit,fcfs",
		APS:             "rules:critical,rowhit,urgent,fcfs",
		APSRank:         "rules:critical,rowhit,urgent,rank,fcfs",
	}
	if len(want) != len(policyTable) {
		t.Fatalf("%d policies pinned, the table has %d", len(want), len(policyTable))
	}
	for p, canon := range want {
		if got := p.Stack().String(); got != canon {
			t.Errorf("%v.Stack() = %q, want %q", p, got, canon)
		}
		if s, err := ResolveStack(p, ""); err != nil || s.String() != canon {
			t.Errorf("ResolveStack(%v, \"\") = %q, %v", p, s, err)
		}
		if s, err := ResolveStack(p, "rules:rowhit"); err != nil || s.String() != "rules:rowhit" {
			t.Errorf("ResolveStack(%v, rules:rowhit) = %q, %v", p, s, err)
		}
	}
	for _, bad := range []Policy{-1, APSRank + 1} {
		if _, err := ResolveStack(bad, ""); err == nil {
			t.Errorf("ResolveStack(%v) accepted", bad)
		}
	}
}

// TestPolicyStacksAreStrictTotalOrders checks antisymmetry of every named
// policy's stack over a candidate cross product: exactly one of
// Better(a,b) / Better(b,a) holds for a != b.
func TestPolicyStacksAreStrictTotalOrders(t *testing.T) {
	var cands []sched.Cand
	seq := uint64(0)
	for _, crit := range []bool{false, true} {
		for _, hit := range []bool{false, true} {
			for _, urg := range []bool{false, true} {
				for _, pref := range []bool{false, true} {
					for _, rank := range []int{-2, 0} {
						cands = append(cands, sched.Cand{
							Seq: seq, Critical: crit, Hit: hit, Urgent: urg, Pref: pref, Rank: rank,
						})
						seq++
					}
				}
			}
		}
	}
	for p := range Policy(len(policyTable)) {
		s := p.Stack()
		for i, a := range cands {
			for j, b := range cands {
				if i == j {
					continue
				}
				ab, _ := s.Better(a, b)
				ba, _ := s.Better(b, a)
				if ab == ba {
					t.Fatalf("%v: Better not antisymmetric for %+v vs %+v (both %v)", p, a, b, ab)
				}
			}
		}
	}
}

// drain ticks until all enqueued requests complete, recording completion order.
func drain(c *Controller, n int) []*Request {
	var order []*Request
	for now := uint64(1); now < 1_000_000 && len(order) < n; now++ {
		order = append(order, c.Tick(now, 8)...)
	}
	return order
}

func TestEnqueueCapacity(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 2, nil)
	if !c.Enqueue(req(0, 1, 1, false)) || !c.Enqueue(req(0, 2, 1, false)) {
		t.Fatal("enqueue failed below capacity")
	}
	if c.Enqueue(req(0, 3, 1, false)) {
		t.Fatal("enqueue above capacity succeeded")
	}
	if !c.Full() || c.Occupancy() != 2 || c.RejectsFull != 1 {
		t.Fatalf("full=%v occ=%d rejects=%d", c.Full(), c.Occupancy(), c.RejectsFull)
	}
}

func TestDemandFirstPriority(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 16, nil)
	p := req(0, 1, 5, true)
	d := req(0, 2, 9, false)
	c.Enqueue(p) // older prefetch
	c.Enqueue(d) // younger demand
	order := drain(c, 2)
	if order[0] != d {
		t.Fatal("demand-first must service the demand before the older prefetch")
	}
}

func TestDemandPrefEqualIsRowHitFirst(t *testing.T) {
	ch := oneBank()
	ch.Banks[0].OpenRow = 5
	c := NewStack(DemandPrefEqual.Stack(), ch, 16, nil)
	d := req(0, 1, 9, false) // older row-conflict demand
	p := req(0, 2, 5, true)  // younger row-hit prefetch
	c.Enqueue(d)
	c.Enqueue(p)
	order := drain(c, 2)
	if order[0] != p {
		t.Fatal("FR-FCFS must service the row-hit prefetch first")
	}
}

func TestPrefetchFirstPriority(t *testing.T) {
	c := NewStack(PrefetchFirst.Stack(), oneBank(), 16, nil)
	d := req(0, 1, 5, false)
	p := req(0, 2, 9, true)
	c.Enqueue(d)
	c.Enqueue(p)
	if order := drain(c, 2); order[0] != p {
		t.Fatal("prefetch-first must service the prefetch first")
	}
}

func TestAPSCriticalPromotion(t *testing.T) {
	// Core 0's prefetches are critical (accurate); core 1's are not.
	st := fixedState{critical: map[int]bool{0: true, 1: false}, urgency: true}
	c := NewStack(APS.Stack(), oneBank(), 16, st)
	junk := req(1, 1, 5, true)   // inaccurate core's prefetch (older)
	useful := req(0, 2, 9, true) // accurate core's prefetch (younger)
	c.Enqueue(junk)
	c.Enqueue(useful)
	if order := drain(c, 2); order[0] != useful {
		t.Fatal("APS must service the critical prefetch before the non-critical one")
	}
}

func TestAPSUrgencyBreaksTies(t *testing.T) {
	st := fixedState{critical: map[int]bool{0: true, 1: false}, urgency: true}
	c := NewStack(APS.Stack(), oneBank(), 16, st)
	// Same row state (both conflicts), both critical: core 0's demand vs
	// core 1's (urgent) demand; the urgent one wins despite arriving later.
	d0 := req(0, 1, 5, false)
	d1 := req(1, 2, 9, false)
	c.Enqueue(d0)
	c.Enqueue(d1)
	if order := drain(c, 2); order[0] != d1 {
		t.Fatal("urgent demand should win the tie")
	}

	// With urgency disabled, FCFS decides.
	st.urgency = false
	c2 := NewStack(APS.Stack(), oneBank(), 16, st)
	d0b := req(0, 1, 5, false)
	d1b := req(1, 2, 9, false)
	c2.Enqueue(d0b)
	c2.Enqueue(d1b)
	if order := drain(c2, 2); order[0] != d0b {
		t.Fatal("without urgency the older request should win")
	}
}

func TestAPSRankPrefersShortJobs(t *testing.T) {
	st := fixedState{critical: map[int]bool{0: false, 1: false}, urgency: false}
	c := NewStack(APSRank.Stack(), oneBank(), 16, st)
	// Core 0 has three outstanding demands, core 1 has one. At equal
	// criticality/row state, core 1 (fewer critical requests) ranks higher
	// even though its request is younger.
	c.Enqueue(req(0, 1, 5, false))
	c.Enqueue(req(0, 2, 6, false))
	c.Enqueue(req(0, 3, 7, false))
	short := req(1, 4, 8, false)
	c.Enqueue(short)
	if order := drain(c, 4); order[0] != short {
		t.Fatal("ranking should service the shortest job's request first")
	}
}

func TestMatchPrefetchPromotes(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 16, nil)
	p := req(3, 42, 5, true)
	c.Enqueue(p)
	got := c.MatchPrefetch(3, 42, 17)
	if got != p || p.Prefetch {
		t.Fatal("promotion failed")
	}
	if p.PromotedAt != 17 {
		t.Fatalf("PromotedAt = %d, want the promotion cycle 17", p.PromotedAt)
	}
	if c.MatchPrefetch(3, 42, 18) != nil {
		t.Fatal("double promotion")
	}
	if c.MatchPrefetch(2, 42, 19) != nil {
		t.Fatal("cross-core promotion")
	}
}

func TestDropExpired(t *testing.T) {
	c := NewStack(APS.Stack(), oneBank(), 16, fixedState{critical: map[int]bool{}})
	old := req(0, 1, 5, true)
	old.Arrival = 0
	young := req(0, 2, 6, true)
	young.Arrival = 990
	dem := req(0, 3, 7, false)
	dem.Arrival = 0
	c.Enqueue(old)
	c.Enqueue(young)
	c.Enqueue(dem)
	dropped := c.DropExpired(1000, func(*Request) uint64 { return 100 })
	if len(dropped) != 1 || dropped[0] != old {
		t.Fatalf("should drop exactly the old prefetch, got %v", dropped)
	}
	if c.Pending() != 2 || c.Dropped != 1 {
		t.Fatalf("pending=%d dropped=%d", c.Pending(), c.Dropped)
	}
}

// TestAgeClampsBeforeArrival is the regression test for the latent
// underflow: aging a request before its arrival cycle used to wrap
// now - Arrival around to ~2^64, making APD drop freshly queued
// prefetches whose arrival raced ahead of the drop scan's cycle.
func TestAgeClampsBeforeArrival(t *testing.T) {
	r := req(0, 1, 5, true)
	r.Arrival = 100
	if got := r.Age(50); got != 0 {
		t.Fatalf("Age before arrival = %d, want 0 (underflow)", got)
	}
	if got := r.Age(100); got != 0 {
		t.Fatalf("Age at arrival = %d, want 0", got)
	}
	if got := r.Age(130); got != 30 {
		t.Fatalf("Age after arrival = %d, want 30", got)
	}

	// End to end: a drop scan at a cycle preceding the arrival must not
	// treat the request as ancient.
	c := NewStack(APS.Stack(), oneBank(), 16, fixedState{critical: map[int]bool{}})
	c.Enqueue(r)
	if dropped := c.DropExpired(50, func(*Request) uint64 { return 100 }); len(dropped) != 0 {
		t.Fatalf("drop scan before arrival dropped %d requests", len(dropped))
	}
}

func TestDropExpiredSkipsInflightAndDemands(t *testing.T) {
	c := NewStack(APS.Stack(), oneBank(), 16, fixedState{critical: map[int]bool{}})
	inflight := req(0, 1, 5, true)
	inflight.Arrival = 0
	c.Enqueue(inflight)
	// Issue the lone prefetch so it is in flight, then queue an old
	// demand and run a drop scan with a threshold everything exceeds.
	c.Tick(1, 8)
	if len(c.inflight) != 1 {
		t.Fatal("setup: prefetch did not go in flight")
	}
	dem := req(0, 2, 6, false)
	dem.Arrival = 0
	c.Enqueue(dem)
	dropped := c.DropExpired(1_000_000, func(*Request) uint64 { return 1 })
	if len(dropped) != 0 {
		t.Fatalf("dropped %d requests; in-flight prefetches and demands must survive", len(dropped))
	}
	if c.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", c.Dropped)
	}
}

func TestDropExpiredRespectsPerCoreThresholds(t *testing.T) {
	c := NewStack(APS.Stack(), oneBank(), 16, fixedState{critical: map[int]bool{}})
	inaccurate := req(0, 1, 5, true) // core 0: tight threshold
	accurate := req(1, 2, 6, true)   // core 1: generous threshold
	c.Enqueue(inaccurate)
	c.Enqueue(accurate)
	thr := func(r *Request) uint64 {
		if r.Core == 0 {
			return 100
		}
		return 100_000
	}
	dropped := c.DropExpired(1_000, thr)
	if len(dropped) != 1 || dropped[0] != inaccurate {
		t.Fatalf("per-core thresholds: dropped %v, want only core 0's prefetch", dropped)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
}

func TestDropExpiredEmitsOneEventPerDrop(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	c := NewStack(APS.Stack(), oneBank(), 16, fixedState{critical: map[int]bool{}})
	c.Instrument(tel, 0)
	c.AttachProbe(probe.New(tel), 0)
	for i := uint64(1); i <= 3; i++ {
		c.Enqueue(req(0, i, i, true))
	}
	survivor := req(1, 9, 9, true)
	survivor.Arrival = 999
	c.Enqueue(survivor)

	dropped := c.DropExpired(1_000, func(r *Request) uint64 {
		if r.Core == 0 {
			return 10
		}
		return 100_000
	})
	if len(dropped) != 3 {
		t.Fatalf("dropped %d, want 3", len(dropped))
	}
	var drops int
	for _, ev := range tel.Events() {
		if ev.Kind == telemetry.EvDrop {
			drops++
			if ev.Core != 0 || !ev.Pref || ev.Cycle != 1_000 {
				t.Fatalf("malformed drop event: %+v", ev)
			}
		}
	}
	if drops != 3 {
		t.Fatalf("telemetry recorded %d drop events, want exactly one per drop (3)", drops)
	}
	if v, ok := tel.Value("memctrl0/drops"); !ok || v != 3 {
		t.Fatalf("memctrl0/drops = %v,%v; want 3", v, ok)
	}
}

func TestRowHitBeatsConflictWithinClass(t *testing.T) {
	ch := oneBank()
	ch.Banks[0].OpenRow = 7
	c := NewStack(DemandFirst.Stack(), ch, 16, nil)
	conflict := req(0, 1, 5, false)
	hit := req(0, 2, 7, false)
	c.Enqueue(conflict)
	c.Enqueue(hit)
	if order := drain(c, 2); order[0] != hit {
		t.Fatal("row-hit demand should beat older row-conflict demand")
	}
}

func TestBankParallelism(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 2
	ch := dram.NewChannel(cfg)
	c := NewStack(DemandFirst.Stack(), ch, 16, nil)
	a := &Request{Core: 0, Line: 1, Addr: dram.Address{Bank: 0, Row: 1}}
	b := &Request{Core: 0, Line: 2, Addr: dram.Address{Bank: 1, Row: 1}}
	c.Enqueue(a)
	c.Enqueue(b)
	order := drain(c, 2)
	// Both must issue the same tick; completions differ only by the burst.
	if d := order[1].FinishAt - order[0].FinishAt; d != cfg.Timing.Burst {
		t.Fatalf("banks should overlap, completions %d and %d", order[0].FinishAt, order[1].FinishAt)
	}
}

func TestServiceRecordsRowState(t *testing.T) {
	c := NewStack(DemandFirst.Stack(), oneBank(), 16, nil)
	r := req(0, 1, 5, false)
	c.Enqueue(r)
	drain(c, 1)
	if r.RowState != dram.RowClosed {
		t.Fatalf("first access should record row-closed: %+v", r)
	}
	if c.Serviced != 1 {
		t.Fatalf("serviced=%d", c.Serviced)
	}
}

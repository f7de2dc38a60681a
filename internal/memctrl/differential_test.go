package memctrl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl/sched"
)

// This file holds the differential test layer guarding the rule-stack
// refactor: legacyController below is the pre-refactor scheduler (the
// monolithic better() switch over a flat queue, with per-tick full-buffer
// rank and row-work scans) copied verbatim minus telemetry, and the
// property test drives it and the rewritten Controller through identical
// randomized request schedules, asserting identical issue orders, DRAM row
// outcomes, completion orders and drop sets for all five legacy policies
// under every page policy. The reference's full-buffer legacyMoreRowWork
// is the oracle for the controller's bucket-scan keep-open decision.

// legacyController is the reference scheduler.
type legacyController struct {
	policy   Policy
	channel  *dram.Channel
	state    CoreState
	capacity int
	nextSeq  uint64

	queue    []*Request
	inflight []*Request

	serviced uint64
	dropped  uint64
}

func legacyNew(policy Policy, channel *dram.Channel, capacity int, state CoreState) *legacyController {
	return &legacyController{policy: policy, channel: channel, capacity: capacity, state: state}
}

func (c *legacyController) Occupancy() int { return len(c.queue) + len(c.inflight) }
func (c *legacyController) full() bool     { return c.Occupancy() >= c.capacity }

func (c *legacyController) Enqueue(r *Request) bool {
	if c.full() {
		return false
	}
	r.seq = c.nextSeq
	c.nextSeq++
	c.queue = append(c.queue, r)
	return true
}

func (c *legacyController) MatchPrefetch(core int, line uint64, now uint64) *Request {
	for _, r := range c.queue {
		if r.Core == core && r.Line == line && r.Prefetch {
			r.Prefetch = false
			r.PromotedAt = now
			return r
		}
	}
	for _, r := range c.inflight {
		if r.Core == core && r.Line == line && r.Prefetch {
			r.Prefetch = false
			r.PromotedAt = now
			return r
		}
	}
	return nil
}

func (c *legacyController) critical(r *Request) bool {
	if !r.Prefetch {
		return true
	}
	return c.state != nil && c.state.PrefetchCritical(r.Core)
}

func (c *legacyController) urgent(r *Request) bool {
	if r.Prefetch || c.state == nil || !c.state.UrgencyEnabled() {
		return false
	}
	return !c.state.PrefetchCritical(r.Core)
}

func (c *legacyController) better(a, b *Request, aHit, bHit bool, rank []int) bool {
	type cmp struct{ a, b bool }
	lex := func(terms ...cmp) bool {
		for _, t := range terms {
			if t.a != t.b {
				return t.a
			}
		}
		return a.seq < b.seq
	}
	switch c.policy {
	case DemandPrefEqual:
		return lex(cmp{aHit, bHit})
	case DemandFirst:
		return lex(cmp{!a.Prefetch, !b.Prefetch}, cmp{aHit, bHit})
	case PrefetchFirst:
		return lex(cmp{a.Prefetch, b.Prefetch}, cmp{aHit, bHit})
	case APS:
		return lex(cmp{c.critical(a), c.critical(b)}, cmp{aHit, bHit}, cmp{c.urgent(a), c.urgent(b)})
	case APSRank:
		ra, rb := 0, 0
		if c.critical(a) {
			ra = rank[a.Core]
		}
		if c.critical(b) {
			rb = rank[b.Core]
		}
		if c.critical(a) != c.critical(b) {
			return c.critical(a)
		}
		if aHit != bHit {
			return aHit
		}
		if ua, ub := c.urgent(a), c.urgent(b); ua != ub {
			return ua
		}
		if ra != rb {
			return ra > rb
		}
		return a.seq < b.seq
	default:
		return a.seq < b.seq
	}
}

func (c *legacyController) ranks(ncores int) []int {
	counts := make([]int, ncores)
	for _, r := range c.queue {
		if c.critical(r) {
			counts[r.Core]++
		}
	}
	for _, r := range c.inflight {
		if c.critical(r) {
			counts[r.Core]++
		}
	}
	rank := make([]int, ncores)
	for i, n := range counts {
		rank[i] = -n
	}
	return rank
}

func (c *legacyController) Tick(now uint64, ncores int) []*Request {
	var done []*Request
	keep := c.inflight[:0]
	for _, r := range c.inflight {
		if r.FinishAt <= now {
			done = append(done, r)
		} else {
			keep = append(keep, r)
		}
	}
	c.inflight = keep
	if len(c.queue) == 0 {
		return done
	}

	var rank []int
	if c.policy == APSRank {
		rank = c.ranks(ncores)
	}

	nbanks := len(c.channel.Banks)
	best := make([]int, nbanks)
	for i := range best {
		best[i] = -1
	}
	for i, r := range c.queue {
		b := r.Addr.Bank
		if !c.channel.BankReady(b, now) {
			continue
		}
		if best[b] < 0 {
			best[b] = i
			continue
		}
		o := c.queue[best[b]]
		rHit := c.channel.Banks[b].State(r.Addr.Row) == dram.RowHit
		oHit := c.channel.Banks[b].State(o.Addr.Row) == dram.RowHit
		if c.better(r, o, rHit, oHit, rank) {
			best[b] = i
		}
	}

	issued := 0
	for b := 0; b < nbanks; b++ {
		if best[b] < 0 {
			continue
		}
		r := c.queue[best[b]]
		keepOpen := c.legacyMoreRowWork(r, best[b])
		finish, state := c.channel.Issue(b, r.Addr.Row, now, keepOpen)
		r.FinishAt = finish // nonzero: marks r issued for the queue sweep below
		r.RowState = state
		r.ServiceAt = now
		c.inflight = append(c.inflight, r)
		c.serviced++
		issued++
	}
	if issued > 0 {
		keepQ := c.queue[:0]
		for _, r := range c.queue {
			if r.FinishAt == 0 {
				keepQ = append(keepQ, r)
			}
		}
		c.queue = keepQ
	}
	return done
}

func (c *legacyController) legacyMoreRowWork(r *Request, skip int) bool {
	for i, q := range c.queue {
		if i == skip {
			continue
		}
		if q.Addr.Bank == r.Addr.Bank && q.Addr.Row == r.Addr.Row {
			return true
		}
	}
	return false
}

func (c *legacyController) DropExpired(now uint64, threshold func(r *Request) uint64) []*Request {
	var dropped []*Request
	keep := c.queue[:0]
	for _, r := range c.queue {
		if r.Prefetch && r.Age(now) > threshold(r) {
			dropped = append(dropped, r)
			continue
		}
		keep = append(keep, r)
	}
	c.queue = keep
	c.dropped += uint64(len(dropped))
	return dropped
}

// flipState is a mutable CoreState shared by both schedulers; the driver
// flips per-core criticality and urgency between ticks to exercise the
// adaptive paths (the per-tick flag hoisting in the new controller must
// observe flips exactly as the legacy per-comparison calls did).
type flipState struct {
	crit    [diffCores]bool
	urgency bool
}

func (s *flipState) PrefetchCritical(core int) bool { return s.crit[core%diffCores] }
func (s *flipState) UrgencyEnabled() bool           { return s.urgency }

const diffCores = 4

// issueTuple identifies one scheduling decision and its DRAM outcome.
type issueTuple struct {
	cycle uint64
	line  uint64
	bank  int
	row   uint64
	fin   uint64
	state dram.RowState
	pref  bool
}

// issuedAt collects the requests issued at cycle now, in inflight
// (bank-ascending issue) order.
func issuedAt(inflight []*Request, now uint64) []issueTuple {
	var out []issueTuple
	for _, r := range inflight {
		if r.ServiceAt == now {
			out = append(out, issueTuple{
				cycle: now, line: r.Line, bank: r.Addr.Bank, row: r.Addr.Row,
				fin: r.FinishAt, state: r.RowState, pref: r.Prefetch,
			})
		}
	}
	return out
}

func sortedLines(reqs []*Request) []uint64 {
	lines := make([]uint64, len(reqs))
	for i, r := range reqs {
		lines[i] = r.Line
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// diffSide is one scheduler under differential test: the legacy
// reference or a rule-stack Controller.
type diffSide interface {
	Enqueue(r *Request) bool
	MatchPrefetch(core int, line uint64, now uint64) *Request
	DropExpired(now uint64, threshold func(r *Request) uint64) []*Request
	Tick(now uint64, ncores int) []*Request
	Occupancy() int
	issued(now uint64) []issueTuple
	totals() (serviced, dropped uint64)
}

func (c *legacyController) issued(now uint64) []issueTuple { return issuedAt(c.inflight, now) }
func (c *legacyController) totals() (uint64, uint64)       { return c.serviced, c.dropped }
func (c *Controller) issued(now uint64) []issueTuple       { return issuedAt(c.inflight, now) }
func (c *Controller) totals() (uint64, uint64)             { return c.Serviced, c.Dropped }

// diffPages is every page policy, each of which a differential run
// covers: the closed and adaptive pages read the keep-open decision.
var diffPages = []dram.PagePolicy{dram.OpenPage, dram.ClosedPage, dram.AdaptivePage}

// diffChannelConfig is the DRAM geometry of one differential run.
func diffChannelConfig(banks int, page dram.PagePolicy) dram.Config {
	cfg := dram.DefaultConfig()
	cfg.Banks = banks
	cfg.Page = page
	return cfg
}

// runDifferential drives the legacy reference and the rule-stack
// controller through one identical randomized schedule and fails on the
// first divergence.
func runDifferential(t *testing.T, pol Policy, seed int64, banks int, page dram.PagePolicy, cycles uint64) {
	t.Helper()
	cfg := diffChannelConfig(banks, page)
	state := &flipState{}
	ref := legacyNew(pol, dram.NewChannel(cfg), 32, state)
	cur := NewStack(pol.Stack(), dram.NewChannel(cfg), 32, state)
	runSchedule(t, pol.String()+"/"+page.String(), ref, cur, state, seed, banks, cycles)
}

// runSchedule drives two schedulers sharing state through one identical
// randomized schedule (enqueues, promotions, drops and state flips) and
// fails on the first divergence in accepts, promotions, drop sets,
// completion order, issue decisions, occupancy or totals.
func runSchedule(t *testing.T, label string, ref, cur diffSide, state *flipState, seed int64, banks int, cycles uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	threshold := func(r *Request) uint64 { return uint64(20 + 10*r.Core) }
	var lineCtr uint64
	type prefRef struct {
		core int
		line uint64
	}
	var prefs []prefRef

	for now := uint64(1); now <= cycles; now++ {
		// Flip adaptive state between ticks only; both sides share it.
		if rng.Intn(32) == 0 {
			state.crit[rng.Intn(diffCores)] = rng.Intn(2) == 0
		}
		if rng.Intn(64) == 0 {
			state.urgency = !state.urgency
		}

		// Enqueue 0-2 new requests with unique lines.
		for n := rng.Intn(3); n > 0; n-- {
			core := rng.Intn(diffCores)
			bank := rng.Intn(banks)
			row := uint64(rng.Intn(4))
			pref := rng.Intn(2) == 0
			lineCtr++
			mk := func() *Request {
				return &Request{
					Core: core, Line: lineCtr, Prefetch: pref, WasPref: pref,
					Arrival: now, Addr: dram.Address{Bank: bank, Row: row},
				}
			}
			okRef := ref.Enqueue(mk())
			okCur := cur.Enqueue(mk())
			if okRef != okCur {
				t.Fatalf("%s seed=%d cycle=%d: enqueue accept diverged ref=%v cur=%v", label, seed, now, okRef, okCur)
			}
			if pref && okRef {
				prefs = append(prefs, prefRef{core, lineCtr})
			}
		}

		// Randomly promote a remembered prefetch (demand hits its line).
		if len(prefs) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(prefs))
			p := prefs[i]
			prefs[i] = prefs[len(prefs)-1]
			prefs = prefs[:len(prefs)-1]
			gotRef := ref.MatchPrefetch(p.core, p.line, now)
			gotCur := cur.MatchPrefetch(p.core, p.line, now)
			if (gotRef == nil) != (gotCur == nil) {
				t.Fatalf("%s seed=%d cycle=%d: promotion diverged ref=%v cur=%v", label, seed, now, gotRef != nil, gotCur != nil)
			}
		}

		// Periodic adaptive prefetch dropping. The refactor buckets the
		// buffer by bank, so drop *order* legitimately changed; the drop
		// *set* must not.
		if rng.Intn(16) == 0 {
			dRef := sortedLines(ref.DropExpired(now, threshold))
			dCur := sortedLines(cur.DropExpired(now, threshold))
			if fmt.Sprint(dRef) != fmt.Sprint(dCur) {
				t.Fatalf("%s seed=%d cycle=%d: drop sets diverged ref=%v cur=%v", label, seed, now, dRef, dCur)
			}
		}

		doneRef := ref.Tick(now, diffCores)
		doneCur := cur.Tick(now, diffCores)
		for i := range doneRef {
			if i >= len(doneCur) || doneRef[i].Line != doneCur[i].Line {
				t.Fatalf("%s seed=%d cycle=%d: completion order diverged ref=%v cur=%v",
					label, seed, now, sortedLines(doneRef), sortedLines(doneCur))
			}
		}
		if len(doneRef) != len(doneCur) {
			t.Fatalf("%s seed=%d cycle=%d: completions ref=%d cur=%d", label, seed, now, len(doneRef), len(doneCur))
		}

		isRef := ref.issued(now)
		isCur := cur.issued(now)
		if fmt.Sprint(isRef) != fmt.Sprint(isCur) {
			t.Fatalf("%s seed=%d cycle=%d: issue decisions diverged\nref: %+v\ncur: %+v", label, seed, now, isRef, isCur)
		}
		if ref.Occupancy() != cur.Occupancy() {
			t.Fatalf("%s seed=%d cycle=%d: occupancy ref=%d cur=%d", label, seed, now, ref.Occupancy(), cur.Occupancy())
		}
	}
	sRef, dRef := ref.totals()
	sCur, dCur := cur.totals()
	if sRef != sCur || dRef != dCur {
		t.Fatalf("%s seed=%d: totals diverged serviced ref=%d cur=%d dropped ref=%d cur=%d",
			label, seed, sRef, sCur, dRef, dCur)
	}
}

// TestDifferentialSchedulerEquivalence proves schedule-equivalence of the
// rule-stack controller against the legacy monolithic scheduler for all
// five policies, across bank counts, page policies and random seeds.
func TestDifferentialSchedulerEquivalence(t *testing.T) {
	policies := []Policy{DemandPrefEqual, DemandFirst, PrefetchFirst, APS, APSRank}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for _, banks := range []int{1, 8} {
				for _, page := range diffPages {
					for seed := int64(1); seed <= 3; seed++ {
						runDifferential(t, pol, seed, banks, page, 600)
					}
				}
			}
		})
	}
}

// TestExplicitFCFSEquivalence pins that a stack which does not list fcfs
// schedules exactly as the same stack with ",fcfs" appended: the same
// issue orders and the same per-rule win counts under the same names.
// The refresh stack runs with a per-bank refresh engine, so the refresh
// pseudo-candidate's wins are counted too.
func TestExplicitFCFSEquivalence(t *testing.T) {
	for _, spec := range []string{
		"rules:rowhit",
		"rules:critical,rowhit,urgent",
		"rules:rank,urgent,prefetchfirst",
		"rules:rowhit,refresh",
	} {
		t.Run(spec, func(t *testing.T) {
			withRefresh := strings.Contains(spec, "refresh")
			for _, banks := range []int{1, 8} {
				for _, page := range diffPages {
					for seed := int64(1); seed <= 3; seed++ {
						cfg := diffChannelConfig(banks, page)
						state := &flipState{}
						build := func(stack string) *Controller {
							c := NewStack(sched.MustParse(stack), dram.NewChannel(cfg), 32, state)
							if withRefresh {
								c.AttachRefresh(refresh.NewEngine(testRefreshCfg(refresh.PerBank), banks))
							}
							return c
						}
						implicit, explicit := build(spec), build(spec+",fcfs")
						runSchedule(t, spec, implicit, explicit, state, seed, banks, 2000)
						in, iw := implicit.RuleWins()
						en, ew := explicit.RuleWins()
						if fmt.Sprint(in, iw) != fmt.Sprint(en, ew) {
							t.Fatalf("seed=%d banks=%d page=%v: rule wins diverged\nimplicit: %v %v\nexplicit: %v %v",
								seed, banks, page, in, iw, en, ew)
						}
						if withRefresh && iw[1] == 0 {
							t.Fatalf("seed=%d banks=%d page=%v: the refresh rule never won, so the run did not exercise it",
								seed, banks, page)
						}
					}
				}
			}
		})
	}
}

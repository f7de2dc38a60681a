// Package memctrl implements the memory request buffer and the DRAM
// scheduling policies the paper studies: the rigid demand-prefetch-equal
// (plain FR-FCFS), demand-first and prefetch-first policies, and the
// adaptive APS / APS+ranking policies that, together with adaptive
// prefetch dropping, form the Prefetch-Aware DRAM Controller.
//
// Scheduling itself is delegated to the composable rule kernel in
// internal/memctrl/sched: every policy — the named enum values and
// arbitrary "rules:" stacks — is an ordered chain of small priority rules
// arbitrating per-bank request buckets. The controller keeps per-core
// outstanding-request counts for the §6.5 shortest-job ranking and reads
// every other input off the buckets themselves (the closed-row keep-open
// decision scans the issuing bank's bucket), so a scheduling decision
// costs a scan of the ready banks' buckets rather than the whole buffer,
// and the hot path allocates nothing in steady state.
package memctrl

import (
	"fmt"
	"slices"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl/memsidepf"
	"padc/internal/memctrl/sched"
	"padc/internal/telemetry"
	"padc/internal/telemetry/probe"
)

// Policy selects one of the paper's named scheduling policies. Each value
// is a row of policyTable: a name and the rule stack it schedules by.
// Custom orderings come in through NewStack / sim.Config's Rules string
// instead of new enum values.
type Policy int

const (
	// DemandPrefEqual is plain FR-FCFS: row-hit first, then oldest first,
	// with no demand/prefetch distinction.
	DemandPrefEqual Policy = iota
	// DemandFirst services all demands to a bank before any prefetch.
	DemandFirst
	// PrefetchFirst always prioritizes prefetches (the paper's footnote 2
	// strawman; uniformly worst).
	PrefetchFirst
	// APS is Adaptive Prefetch Scheduling (Rule 1): Critical > Row-hit >
	// Urgent > FCFS, with criticality and urgency derived from each core's
	// measured prefetch accuracy.
	APS
	// APSRank is APS with the shortest-job-first ranking stage of §6.5
	// inserted before FCFS (Rule 2).
	APSRank
)

// policyTable names each Policy and spells the rule stack it schedules by
// (DESIGN.md maps each onto the paper's §5.1/§6.5 priority tables).
var policyTable = [...]struct{ name, rules string }{
	DemandPrefEqual: {"demand-pref-equal", "rules:rowhit,fcfs"},
	DemandFirst:     {"demand-first", "rules:demandfirst,rowhit,fcfs"},
	PrefetchFirst:   {"prefetch-first", "rules:prefetchfirst,rowhit,fcfs"},
	APS:             {"aps", "rules:critical,rowhit,urgent,fcfs"},
	APSRank:         {"aps-rank", "rules:critical,rowhit,urgent,rank,fcfs"},
}

// known reports whether p is one of the Policy constants.
func (p Policy) known() bool { return p >= 0 && int(p) < len(policyTable) }

// String implements fmt.Stringer.
func (p Policy) String() string {
	if !p.known() {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyTable[p].name
}

// Stack returns the rule stack the policy schedules by; p must be one of
// the Policy constants.
func (p Policy) Stack() sched.Stack { return sched.MustParse(policyTable[p].rules) }

// ResolveStack maps the configuration surface onto a scheduling stack:
// rules, when non-empty, is parsed as a "rules:" list and wins; otherwise
// the enum policy's stack is used. An out-of-range policy is an error.
func ResolveStack(p Policy, rules string) (sched.Stack, error) {
	if rules != "" {
		return sched.Parse(rules)
	}
	if !p.known() {
		return sched.Stack{}, fmt.Errorf("memctrl: unknown policy %v", p)
	}
	return p.Stack(), nil
}

// Request is one entry of the memory request buffer.
type Request struct {
	Core     int
	Line     uint64
	Addr     dram.Address
	Prefetch bool // currently a prefetch (false for demands and promoted prefetches)
	WasPref  bool // originated as a prefetch (even if later promoted)
	MemSide  bool // generated by the controller's memory-side prefetch engine
	Arrival  uint64
	seq      uint64 // FCFS tiebreak

	FinishAt   uint64
	RowState   dram.RowState // the row-buffer state the DRAM access found
	ServiceAt  uint64
	PromotedAt uint64 // cycle a demand promoted this prefetch (0 = never)
}

// Age returns how long the request has been buffered. It clamps to 0 when
// now precedes the arrival cycle, so callers aging a request concurrently
// with (or before) its admission cannot underflow into a huge age.
func (r *Request) Age(now uint64) uint64 {
	if now < r.Arrival {
		return 0
	}
	return now - r.Arrival
}

// CoreState provides the per-core adaptive inputs the APS policies use;
// the PADC accuracy meter implements it.
type CoreState interface {
	// PrefetchCritical reports whether the core's prefetches are currently
	// promoted to demand priority (accuracy >= promotion threshold).
	PrefetchCritical(core int) bool
	// UrgencyEnabled gates priority rule 3 (for the §6.3.4 ablation).
	UrgencyEnabled() bool
}

// Controller is one memory controller: a bounded request buffer in front
// of one DRAM channel, scheduling one request per DRAM cycle per ready
// bank. Waiting requests live in per-bank buckets; the per-core
// outstanding counts are maintained incrementally on
// enqueue/promote/issue/complete/drop.
type Controller struct {
	stack    sched.Stack
	channel  *dram.Channel
	state    CoreState
	capacity int
	nextSeq  uint64

	// Which Cand inputs the stack actually reads; unset inputs are
	// neither computed per candidate nor maintained per tick.
	useCrit, useUrgent, useRank bool

	// refresh is the optional maintenance engine (nil when refresh is
	// disabled); useRefresh records whether the stack contains the
	// "refresh" rule, letting due refreshes contend with waiting requests
	// in per-bank arbitration rather than waiting for idle banks or the
	// forced deadline.
	refresh    *refresh.Engine
	useRefresh bool

	// memside is the optional memory-side prefetch engine (nil when the
	// path is disabled); msCnt counts its requests outstanding in the
	// buffer, kept out of the per-core demand/prefetch counts so
	// memory-side traffic never perturbs the §6.5 ranking.
	memside *memsidepf.Engine
	msCnt   int
	msIdle  []memsidepf.Window // per-tick scratch: this tick's idle row-hit windows

	banks    [][]*Request // waiting requests bucketed by bank
	pending  int          // total waiting requests across buckets
	inflight []*Request
	done     []*Request // reusable completion buffer returned by Tick
	dropped  []*Request // reusable drop buffer returned by DropExpired

	// free holds zeroed requests for NewRequest: one per buffer slot at
	// construction, refilled by Recycle and never longer than capacity.
	free []*Request

	// Per-core outstanding (waiting + in-flight) request counts by class,
	// sized lazily to the largest core id seen. Together with the per-tick
	// criticality flags they make the §6.5 ranking O(cores), replacing the
	// per-tick full-buffer scan.
	demandCnt []int
	prefCnt   []int

	// Per-tick scratch, reused across ticks to keep Tick allocation-free.
	critFlags []bool
	urgFlags  []bool
	rankBuf   []int

	// ruleWins counts scheduling decisions by the rule that settled them,
	// index i the stack's i-th rule (its Names). Only contested
	// arbitrations (bucket held more than one candidate) are counted.
	ruleWins []uint64

	// probe receives the controller's request and bank events (nil when
	// nothing observes); id is the controller's channel index in them.
	probe *probe.Probe
	id    int16

	// linkCycles is the topology-supplied round-trip wire delay to this
	// controller's memory domain, added to every request's completion time
	// after DRAM service. It occupies neither the bank nor the data bus —
	// the request is on the link, not in the DRAM — so scheduling state is
	// untouched; zero (the flat topology) leaves completion times exactly
	// as the channel computed them.
	linkCycles uint64

	// Stats.
	Enqueued    uint64
	RejectsFull uint64
	Serviced    uint64
	Dropped     uint64
}

// NewStack builds a controller over channel with the given buffer
// capacity, scheduling with a rule stack (a Policy's Stack, or a "rules:"
// list sched.Parse accepts). state may be nil when no rule in the stack
// consults core accuracy.
func NewStack(stack sched.Stack, channel *dram.Channel, capacity int, state CoreState) *Controller {
	n := max(capacity, 0)
	c := &Controller{
		stack:      stack,
		channel:    channel,
		capacity:   capacity,
		state:      state,
		useCrit:    stack.Uses("critical") || stack.Uses("rank"),
		useUrgent:  stack.Uses("urgent"),
		useRank:    stack.Uses("rank"),
		useRefresh: stack.Uses("refresh"),
		banks:      make([][]*Request, len(channel.Banks)),
		ruleWins:   make([]uint64, len(stack.Names())),
	}
	// Every request list is bounded by the buffer, and any one bank may
	// hold all of it: size them up front so none grows mid-run, and stock
	// the free list with one request per slot.
	c.inflight = make([]*Request, 0, n)
	c.done = make([]*Request, 0, n)
	c.dropped = make([]*Request, 0, n)
	c.free = make([]*Request, n)
	slab := make([]Request, n)
	for i := range slab {
		c.free[i] = &slab[i]
	}
	for b := range c.banks {
		c.banks[b] = make([]*Request, 0, n)
	}
	return c
}

// NewRequest returns a zeroed request from the controller's free list,
// allocating only when the list is empty. The caller fills it in and
// hands it to Enqueue; once the request leaves the controller (returned
// by Tick or DropExpired, or rejected by Enqueue) and the caller has made
// its last read of it, Recycle gives it back.
func (c *Controller) NewRequest() *Request {
	n := len(c.free)
	if n == 0 {
		return new(Request)
	}
	r := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	return r
}

// Recycle zeroes r and keeps it for a later NewRequest. r must no longer
// be buffered or in flight here, and the caller must not touch it again.
// Beyond the buffer's capacity the list stops growing and r is left to
// the garbage collector, so a burst of rejected requests cannot inflate
// it.
func (c *Controller) Recycle(r *Request) {
	if len(c.free) >= c.capacity {
		return
	}
	*r = Request{}
	c.free = append(c.free, r)
}

// SetLinkLatency sets the extra round-trip cycles between this controller
// and its cores (a far pooled-memory tier behind a link). Call once after
// construction, before the first Tick.
func (c *Controller) SetLinkLatency(cycles uint64) { c.linkCycles = cycles }

// Instrument registers this controller's (and its channel's) metrics into
// tel under "memctrl<id>/..." and "dram<id>/..." names. Call once after
// construction; a nil tel is a no-op.
func (c *Controller) Instrument(tel *telemetry.Telemetry, id int) {
	if tel == nil {
		return
	}
	pre := fmt.Sprintf("memctrl%d", id)
	tel.CounterFunc(pre+"/enqueued", func() uint64 { return c.Enqueued })
	tel.CounterFunc(pre+"/serviced", func() uint64 { return c.Serviced })
	tel.CounterFunc(pre+"/drops", func() uint64 { return c.Dropped })
	tel.CounterFunc(pre+"/rejects_full", func() uint64 { return c.RejectsFull })
	tel.GaugeFunc(pre+"/occupancy", func() float64 { return float64(c.Occupancy()) })
	// Per-rule "decision won by" counters: how often each rule of the
	// stack settled a contested arbitration.
	for i, name := range c.stack.Names() {
		tel.CounterFunc(fmt.Sprintf("%s/rule_wins/%s", pre, name), func() uint64 { return c.ruleWins[i] })
	}

	ch := c.channel
	dpre := fmt.Sprintf("dram%d", id)
	tel.CounterFunc(dpre+"/row_hits", func() uint64 { h, _, _ := ch.Counts(); return h })
	tel.CounterFunc(dpre+"/row_closed", func() uint64 { _, cl, _ := ch.Counts(); return cl })
	tel.CounterFunc(dpre+"/row_conflicts", func() uint64 { _, _, cf := ch.Counts(); return cf })
	tel.CounterFunc(dpre+"/activations", func() uint64 { return ch.Activations })
	tel.CounterFunc(dpre+"/precharges", func() uint64 { return ch.Precharges })
	tel.CounterFunc(dpre+"/bus_busy_cycles", func() uint64 { return ch.BusBusyCycles })
	if eng := c.refresh; eng != nil {
		tel.CounterFunc(dpre+"/refreshes_issued", func() uint64 { return eng.Issued })
		tel.CounterFunc(dpre+"/refreshes_postponed", func() uint64 { return eng.Postponed })
		tel.CounterFunc(dpre+"/refreshes_pulled_in", func() uint64 { return eng.PulledIn })
		tel.CounterFunc(dpre+"/refreshes_forced", func() uint64 { return eng.Forced })
		tel.CounterFunc(dpre+"/refresh_blocked_cycles", func() uint64 { return eng.BlockedCycles })
	}
	if eng := c.memside; eng != nil {
		tel.CounterFunc(pre+"/memside/generated", func() uint64 { return eng.Generated })
		tel.CounterFunc(pre+"/memside/enqueued", func() uint64 { return eng.Enqueued })
		tel.CounterFunc(pre+"/memside/issued", func() uint64 { return eng.Issued })
		tel.CounterFunc(pre+"/memside/filtered", func() uint64 { return eng.Filtered })
		tel.CounterFunc(pre+"/memside/dropped_overflow", func() uint64 { return eng.DroppedOverflow })
		tel.CounterFunc(pre+"/memside/dropped_pressure", func() uint64 { return eng.DroppedPressure })
		tel.CounterFunc(pre+"/memside/dropped_stale", func() uint64 { return eng.DroppedStale })
		tel.CounterFunc(pre+"/memside/gate_closed", func() uint64 { return eng.GateClosed })
		tel.GaugeFunc(pre+"/memside/pending", func() float64 { return float64(eng.Pending()) })
	}
}

// AttachProbe publishes the controller's request and bank events to p,
// stamped with channel index id. A nil p leaves them unpublished.
func (c *Controller) AttachProbe(p *probe.Probe, id int) {
	c.probe, c.id = p, int16(id)
}

// AttachRefresh puts the controller in charge of scheduling eng's refresh
// obligations against its request traffic. Call before Instrument so the
// refresh counters register; a nil engine (or one with Mode Off) leaves
// refresh disabled. The engine's bank count must match the channel's in
// per-bank mode.
func (c *Controller) AttachRefresh(eng *refresh.Engine) {
	if eng == nil || !eng.Config().Enabled() {
		return
	}
	c.refresh = eng
}

// Refresh returns the attached maintenance engine, nil when refresh is
// disabled.
func (c *Controller) Refresh() *refresh.Engine { return c.refresh }

// AttachMemSide puts the controller in charge of draining eng's
// memory-side prefetch candidates into idle row-hit windows. Call before
// Instrument so the memside counters register; a nil engine leaves the
// path disabled.
func (c *Controller) AttachMemSide(eng *memsidepf.Engine) {
	c.memside = eng
	c.msIdle = make([]memsidepf.Window, 0, len(c.banks))
}

// MemSide returns the attached memory-side prefetch engine, nil when the
// path is disabled.
func (c *Controller) MemSide() *memsidepf.Engine { return c.memside }

// RuleWins reports the per-rule decision counters: for each rule name in
// stack order (ending in fcfs, appended when the stack does not list it),
// how many contested arbitrations that rule settled. wins is a copy, so a
// caller may keep it as a previous sample.
func (c *Controller) RuleWins() (names []string, wins []uint64) {
	return c.stack.Names(), slices.Clone(c.ruleWins)
}

// Occupancy returns how many buffer entries are in use.
func (c *Controller) Occupancy() int { return c.pending + len(c.inflight) }

// Full reports whether the request buffer has no free entry.
func (c *Controller) Full() bool { return c.Occupancy() >= c.capacity }

// noteAdmit updates the per-core outstanding counts for a request
// entering the controller (delta +1) or leaving it (delta -1), keyed by
// its current class — promotions move a count via MatchPrefetch instead.
// Memory-side prefetches are tracked in their own aggregate count so
// demand/prefetch occupancy accounting stays core-attributed.
func (c *Controller) noteAdmit(r *Request, delta int) {
	if r.MemSide {
		c.msCnt += delta
		return
	}
	if r.Core >= len(c.demandCnt) {
		grown := make([]int, r.Core+1)
		copy(grown, c.demandCnt)
		c.demandCnt = grown
		grownP := make([]int, r.Core+1)
		copy(grownP, c.prefCnt)
		c.prefCnt = grownP
	}
	if r.Prefetch {
		c.prefCnt[r.Core] += delta
	} else {
		c.demandCnt[r.Core] += delta
	}
}

// Enqueue admits a request. It returns false (and drops the request) when
// the buffer is full; callers treat that as a stall for demands and a
// cancelled issue for prefetches, and may Recycle the rejected request.
func (c *Controller) Enqueue(r *Request) bool {
	if c.Full() {
		c.RejectsFull++
		if c.probe != nil {
			c.probe.Publish(probe.Event{
				Kind: probe.Reject, Cycle: r.Arrival, Line: r.Line, Pref: r.Prefetch,
				Core: int16(r.Core), Chan: c.id, Bank: int16(r.Addr.Bank),
			})
		}
		return false
	}
	r.seq = c.nextSeq
	c.nextSeq++
	b := r.Addr.Bank
	c.banks[b] = append(c.banks[b], r)
	c.pending++
	c.noteAdmit(r, +1)
	c.Enqueued++
	if c.memside != nil && !r.Prefetch {
		// The demand stream trains the memory-side engine: its same-row
		// neighbors become candidates for this controller's idle windows.
		c.memside.Train(r.Core, r.Line, r.Addr, r.Arrival)
	}
	if c.probe != nil {
		c.probe.Publish(probe.Event{
			Kind: probe.Enqueue, Cycle: r.Arrival, Line: r.Line, Pref: r.Prefetch,
			Core: int16(r.Core), Chan: c.id, Bank: int16(r.Addr.Bank),
		})
	}
	return true
}

// MatchPrefetch looks for a buffered (waiting or in-flight) prefetch from
// core for line and promotes it to demand criticality at cycle now,
// returning it; nil if absent. Per the paper's §4.1 a promoted prefetch
// counts as useful. The promotion cycle is stamped into the request so
// lifecycle tracing can report how long the prefetch ran speculatively.
// Memory-side prefetches are never promoted: they hold no MSHR entry and
// no core-side accounting, so the demand issues its own request and the
// memory-side copy completes (or drops) independently.
func (c *Controller) MatchPrefetch(core int, line uint64, now uint64) *Request {
	promote := func(r *Request) {
		r.Prefetch = false
		r.PromotedAt = now
		// The request changes class while outstanding: move its count.
		c.prefCnt[r.Core]--
		c.demandCnt[r.Core]++
	}
	for _, bucket := range c.banks {
		for _, r := range bucket {
			if r.Core == core && r.Line == line && r.Prefetch && !r.MemSide {
				promote(r)
				return r
			}
		}
	}
	for _, r := range c.inflight {
		if r.Core == core && r.Line == line && r.Prefetch && !r.MemSide {
			promote(r)
			return r
		}
	}
	return nil
}

// critical implements priority rule 1 for one request given its core's
// per-tick prefetch-criticality flag.
func critical(r *Request, coreCrit bool) bool {
	return !r.Prefetch || coreCrit
}

// refreshFlags recomputes the per-core criticality/urgency flags the
// stack's rules read this tick. One CoreState call per core per tick
// replaces the per-comparison calls of the old monolithic comparator.
func (c *Controller) refreshFlags(ncores int) {
	if n := len(c.demandCnt); n > ncores {
		ncores = n
	}
	if cap(c.critFlags) < ncores {
		c.critFlags = make([]bool, ncores)
		c.urgFlags = make([]bool, ncores)
	}
	c.critFlags = c.critFlags[:ncores]
	c.urgFlags = c.urgFlags[:ncores]
	urgencyOn := c.useUrgent && c.state != nil && c.state.UrgencyEnabled()
	for core := 0; core < ncores; core++ {
		crit := c.state != nil && c.state.PrefetchCritical(core)
		c.critFlags[core] = crit
		c.urgFlags[core] = urgencyOn && !crit
	}
}

// refreshRanks recomputes the §6.5 shortest-job ranks from the
// incrementally-maintained per-core outstanding counts: cores with fewer
// critical (demand + critical-prefetch) requests rank higher.
func (c *Controller) refreshRanks(ncores int) {
	if n := len(c.demandCnt); n > ncores {
		ncores = n
	}
	if cap(c.rankBuf) < ncores {
		c.rankBuf = make([]int, ncores)
	}
	c.rankBuf = c.rankBuf[:ncores]
	for core := 0; core < ncores; core++ {
		n := 0
		if core < len(c.demandCnt) {
			n = c.demandCnt[core]
			if c.critFlags[core] {
				n += c.prefCnt[core]
			}
		}
		c.rankBuf[core] = -n // fewer outstanding critical requests => larger rank
	}
}

// cand assembles the rule inputs for one waiting request.
func (c *Controller) cand(r *Request, bank *dram.Bank) sched.Cand {
	cd := sched.Cand{
		Seq:  r.seq,
		Pref: r.Prefetch,
		Hit:  bank.State(r.Addr.Row) == dram.RowHit,
	}
	if c.useCrit {
		cd.Critical = critical(r, c.critFlags[r.Core])
	}
	if c.useUrgent {
		cd.Urgent = !r.Prefetch && c.urgFlags[r.Core]
	}
	if c.useRank {
		cd.Rank = c.rankBuf[r.Core]
	}
	return cd
}

// Tick makes the cycle's scheduling decisions and returns any requests
// whose DRAM service completed by now; the returned slice is reused by
// the next Tick, and the caller may Recycle each request once done with
// it. Scheduling is per bank — banks precharge and activate in parallel,
// serializing only on the shared data bus — so each ready bank
// issues its own highest-priority waiting request, the arbitration
// FR-FCFS-class schedulers perform. Busy banks' buckets are skipped
// entirely. ncores sizes the per-core flag and rank scratch.
func (c *Controller) Tick(now uint64, ncores int) []*Request {
	// Harvest completions into the reusable buffer.
	done := c.done[:0]
	keep := c.inflight[:0]
	for _, r := range c.inflight {
		if r.FinishAt <= now {
			c.noteAdmit(r, -1) // leaves the controller
			done = append(done, r)
		} else {
			keep = append(keep, r)
		}
	}
	c.inflight = keep
	c.done = done
	if c.refresh != nil {
		c.refreshPass(now)
	}
	if c.memside != nil {
		c.memsidePass(now)
	}
	if c.pending == 0 {
		return done
	}

	if c.useCrit || c.useUrgent {
		c.refreshFlags(ncores)
	}
	if c.useRank {
		c.refreshRanks(ncores)
	}

	for b := range c.banks {
		bucket := c.banks[b]
		if len(bucket) == 0 {
			continue
		}
		if c.refresh != nil && c.refresh.Blocked(b, now) {
			// The bank is mid-refresh or past its forced deadline: requests
			// wait, and the wait is charged to the refresh engine.
			c.refresh.NoteBlocked()
			if c.probe != nil {
				c.probe.Publish(probe.Event{Kind: probe.RefreshBlocked, Cycle: now, Core: -1, Chan: c.id, Bank: int16(b)})
			}
			continue
		}
		if !c.channel.BankReady(b, now) {
			continue
		}
		bank := &c.channel.Banks[b]
		bestIdx := 0
		best := c.cand(bucket[0], bank)
		decider := 0
		for i := 1; i < len(bucket); i++ {
			cd := c.cand(bucket[i], bank)
			better, by := c.stack.Better(cd, best)
			if better {
				best, bestIdx = cd, i
			}
			decider = by
		}
		if len(bucket) > 1 {
			c.ruleWins[decider]++
		}
		// With the "refresh" rule in the stack, a due refresh contends as a
		// pseudo-candidate against the bucket's best request: the rules
		// ahead of "refresh" decide which request classes it yields to.
		// Per-bank mode only — an all-bank refresh cannot be granted from
		// one bank's arbitration.
		if c.useRefresh && c.refresh != nil && c.refresh.Mode() == refresh.PerBank &&
			c.refresh.Due(b, now) {
			rc := sched.Cand{IsRefresh: true, Seq: ^uint64(0)}
			if better, by := c.stack.Better(rc, best); better {
				c.ruleWins[by]++
				c.startRefresh(b, now)
				continue
			}
		}
		c.issue(b, bestIdx, now)
	}
	return done
}

// memsidePass runs the memory-side prefetch engine's per-tick duties
// before request arbitration. Under demand pressure the whole candidate
// list is shed (DROPLET's drop-on-pressure: a memory-side prefetch is
// the cheapest request to sacrifice). Otherwise at most one candidate
// per tick is admitted into an idle row-hit window — a bank with no
// waiting work, ready, not refresh-blocked, whose open row matches — so
// memory-side prefetches only ever turn bus idle slots into row hits.
// The windows are collected once per tick, O(banks), and the engine
// answers from its per-(bank, row) index without scanning its list.
func (c *Controller) memsidePass(now uint64) {
	e := c.memside
	if e.Pending() == 0 {
		return
	}
	demands := 0
	for _, n := range c.demandCnt {
		demands += n
	}
	if e.PressureAt(demands, c.capacity) {
		n := e.DropPressure()
		c.Dropped += uint64(n)
		if c.probe != nil && n > 0 {
			c.probe.Publish(probe.Event{
				Kind: probe.Drop, Cycle: now, A: uint64(n), Pref: true, WasPref: true,
				Core: -1, Chan: c.id, Bank: -1,
			})
		}
		return
	}
	if c.Full() {
		return
	}
	idle := c.msIdle[:0]
	for b := range c.banks {
		bank := &c.channel.Banks[b]
		if len(c.banks[b]) != 0 || bank.OpenRow < 0 || !c.channel.BankReady(b, now) {
			continue
		}
		if c.refresh != nil && c.refresh.Blocked(b, now) {
			continue
		}
		idle = append(idle, memsidepf.Window{Bank: b, Row: uint64(bank.OpenRow)})
	}
	c.msIdle = idle
	cand, ok := e.Take(now, idle) // drops stale candidates even with no window
	if !ok {
		return
	}
	r := c.NewRequest()
	*r = Request{
		Core: cand.Core, Line: cand.Line, Addr: cand.Addr,
		Prefetch: true, WasPref: true, MemSide: true, Arrival: now,
	}
	c.Enqueue(r) // cannot be rejected: Full was checked above
}

// NeverEvent is the NextEvent value meaning no internally-scheduled work:
// only a new Enqueue (which happens on an executed core cycle) can give
// the controller something to do.
const NeverEvent = ^uint64(0)

// NextEvent reports the earliest cycle > now at which Tick could change
// state: an in-flight access completing, a waiting request's bank coming
// free, a refresh obligation accruing, an in-progress refresh expiring,
// or a startable refresh's bank draining. It returns now+1 whenever the
// very next tick can already act — a ready bank with waiting work, or a
// refresh-blocked bank with waiting work (whose wait is charged per tick
// and therefore must not be skipped). Cycles in (now, NextEvent(now)) are
// guaranteed no-op ticks: skipping them changes no counter and no
// scheduling decision. The caller quantizes the result onto its tick
// grid and re-evaluates after every executed cycle.
func (c *Controller) NextEvent(now uint64) uint64 {
	if c.memside != nil && c.memside.Pending() > 0 {
		// Conservative: any tick may open an idle row-hit window for a
		// waiting candidate, shed the list on pressure, or age one out,
		// so no cycle is provably inert while candidates are pending.
		// An exact wake-up (earliest of those three) was measured on
		// stress8: it kept every result but only moved the skip ratio
		// from 0.009 to 0.011, and it cost a walk of the list per call.
		return now + 1
	}
	next := NeverEvent
	for _, r := range c.inflight {
		if r.FinishAt < next {
			next = r.FinishAt
		}
	}
	for b := range c.banks {
		if len(c.banks[b]) == 0 {
			continue
		}
		if c.refresh != nil && c.refresh.Blocked(b, now) {
			return now + 1 // blocked-cycle accounting accrues every tick
		}
		if !c.channel.BankReady(b, now) {
			if bu := c.channel.Banks[b].BusyUntil; bu < next {
				next = bu
			}
			continue
		}
		return now + 1 // a ready bank with waiting work arbitrates next tick
	}
	if c.refresh != nil {
		if e := c.refreshNextEvent(now); e < next {
			next = e
		}
	}
	return next
}

// refreshNextEvent bounds the maintenance engine's next action: the next
// obligation accrual, the expiry of an in-progress refresh, and the cycle
// a unit refreshWanted fires would start once its banks drain. When no
// unit is wanted, only the accrual and expiry deadlines (or an
// enqueue/completion, handled by the caller) can change that.
func (c *Controller) refreshNextEvent(now uint64) uint64 {
	eng := c.refresh
	next := eng.NextAccrual()
	w := c.refreshUnit()
	for lo := 0; lo < len(c.banks); lo += w {
		if eng.Refreshing(lo, now) {
			next = min(next, eng.BusyUntil(lo))
			continue
		}
		if c.refreshWanted(lo, now) {
			start := now + 1
			for b := lo; b < lo+w; b++ {
				start = max(start, c.channel.Banks[b].BusyUntil)
			}
			next = min(next, start)
		}
	}
	return next
}

// HasPrefetches reports whether any admitted request is still classed as
// a prefetch (waiting or in flight) — the only state the APD drop scan
// can act on, so its periodic boundary is skippable while this is false.
// Memory-side prefetches count: the drop scan ages them too.
func (c *Controller) HasPrefetches() bool {
	if c.msCnt > 0 {
		return true
	}
	for _, n := range c.prefCnt {
		if n > 0 {
			return true
		}
	}
	return false
}

// refreshPass runs the maintenance engine's per-tick duties before request
// arbitration: accrue obligations, then start a refresh on every unit
// that is not refreshing, whose banks are all ready, and that
// refreshWanted fires. An all-bank refresh waits for the whole rank to be
// ready: Engine.Blocked holds every bank once its deadline passes, so
// in-flight accesses drain and the rank-wide gap opens.
func (c *Controller) refreshPass(now uint64) {
	eng := c.refresh
	eng.Advance(now)
	w := c.refreshUnit()
	for lo := 0; lo < len(c.banks); lo += w {
		if eng.Refreshing(lo, now) || !c.banksReady(lo, lo+w, now) || !c.refreshWanted(lo, now) {
			continue
		}
		until := eng.Start(lo, now)
		for b := lo; b < lo+w; b++ {
			c.refreshBank(b, now, until)
		}
	}
}

// refreshUnit returns how many banks one refresh covers: one under
// per-bank refresh, the whole rank under all-bank refresh. Units are the
// runs [lo, lo+refreshUnit()), and the engine keys each by its first bank.
func (c *Controller) refreshUnit() int {
	if c.refresh.Mode() == refresh.AllBank {
		return len(c.banks)
	}
	return 1
}

// refreshWanted is the one rule by which a refresh fires, read by
// refreshPass to start one and by refreshNextEvent to predict it, for the
// unit whose first bank is lo. A unit out of postpone credit must refresh.
// Otherwise it refreshes only while empty — no request waits for its bank
// under per-bank refresh, the whole controller is idle under all-bank
// refresh, which stalls every bank — and then when an obligation is due,
// or early as a pull-in within the credit window while the controller is
// idle.
func (c *Controller) refreshWanted(lo int, now uint64) bool {
	eng := c.refresh
	if eng.MustRefresh(lo) {
		return true
	}
	idle := c.pending == 0 && len(c.inflight) == 0
	empty := idle
	if eng.Mode() == refresh.PerBank {
		empty = len(c.banks[lo]) == 0
	}
	return empty && (eng.Due(lo, now) || (idle && eng.CanPullIn(lo)))
}

// banksReady reports whether every bank in [lo, hi) can accept a command
// at now.
func (c *Controller) banksReady(lo, hi int, now uint64) bool {
	for b := lo; b < hi; b++ {
		if !c.channel.BankReady(b, now) {
			return false
		}
	}
	return true
}

// startRefresh issues a per-bank refresh to bank b, blocking it for tRFCpb.
func (c *Controller) startRefresh(b int, now uint64) {
	c.refreshBank(b, now, c.refresh.Start(b, now))
}

// refreshBank occupies bank b with a refresh through until, as one bank's
// share of a rank-wide refresh under all-bank refresh.
func (c *Controller) refreshBank(b int, now, until uint64) {
	if c.probe != nil {
		var closes uint8
		if c.channel.Banks[b].OpenRow >= 0 {
			closes = 1
		}
		c.probe.Publish(probe.Event{
			Kind: probe.Refresh, Cycle: now, A: until, AllBank: c.refresh.Mode() == refresh.AllBank, Closes: closes,
			Core: -1, Chan: c.id, Bank: int16(b),
		})
	}
	c.channel.Refresh(b, until)
}

// issue removes bucket[idx] from the waiting set and schedules it on the
// DRAM channel, telling it whether the bucket holds more work for the
// row (the closed and adaptive pages' keep-open decision).
func (c *Controller) issue(b, idx int, now uint64) {
	bucket := c.banks[b]
	r := bucket[idx]
	last := len(bucket) - 1
	bucket[idx] = bucket[last]
	bucket[last] = nil
	c.banks[b] = bucket[:last]
	c.pending--

	finish, state := c.channel.Issue(b, r.Addr.Row, now, c.moreRowWork(r))
	finish += c.linkCycles
	r.FinishAt = finish
	r.RowState = state
	r.ServiceAt = now
	c.inflight = append(c.inflight, r)
	c.Serviced++
	if c.probe != nil {
		// Every access but a row hit activates a row; a conflict precharges
		// first, and a bank left closed was precharged after the access.
		var opens, closes uint8
		if state != dram.RowHit {
			opens = 1
		}
		if state == dram.RowConflict {
			closes++
		}
		if c.channel.Banks[b].OpenRow < 0 {
			closes++
		}
		c.probe.Publish(probe.Event{
			Kind: probe.Issue, Cycle: now, Line: r.Line, A: finish, Pref: r.Prefetch,
			Row: state, Opens: opens, Closes: closes,
			Core: int16(r.Core), Chan: c.id, Bank: int16(b),
		})
	}
}

// moreRowWork reports whether a request still waiting in r's bank
// targets r's row. Buckets are per bank, so once issue has taken r out
// the bank's bucket alone answers: arbitration has just walked it.
func (c *Controller) moreRowWork(r *Request) bool {
	for _, o := range c.banks[r.Addr.Bank] {
		if o.Addr.Row == r.Addr.Row {
			return true
		}
	}
	return false
}

// DropExpired implements the buffer half of Adaptive Prefetch Dropping:
// waiting (never in-flight) prefetches older than the drop threshold the
// callback assigns them are removed and returned so the caller can
// release MSHR entries, account statistics and Recycle them. The
// request-valued callback lets memory-side prefetches age against their
// tier's aggregate accuracy ladder while core-side ones keep per-core
// thresholds. Like Tick's, the returned slice is reused by the next call.
func (c *Controller) DropExpired(now uint64, threshold func(r *Request) uint64) []*Request {
	dropped := c.dropped[:0]
	for b := range c.banks {
		bucket := c.banks[b]
		keep := bucket[:0]
		for _, r := range bucket {
			if r.Prefetch && r.Age(now) > threshold(r) {
				dropped = append(dropped, r)
				c.pending--
				if r.MemSide {
					c.msCnt--
				} else {
					c.prefCnt[r.Core]--
				}
				if c.probe != nil {
					c.probe.Publish(probe.Event{
						Kind: probe.Drop, Cycle: now, Line: r.Line, A: r.Age(now), Enqueue: r.Arrival,
						Pref: true, WasPref: true,
						Core: int16(r.Core), Chan: c.id, Bank: int16(b),
					})
				}
				continue
			}
			keep = append(keep, r)
		}
		// Zero the tail so dropped requests do not linger in the backing array.
		for i := len(keep); i < len(bucket); i++ {
			bucket[i] = nil
		}
		c.banks[b] = keep
	}
	c.dropped = dropped
	c.Dropped += uint64(len(dropped))
	return dropped
}

// Pending returns the number of waiting (not yet issued) requests.
func (c *Controller) Pending() int { return c.pending }

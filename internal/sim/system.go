package sim

import (
	"fmt"

	"padc/internal/cache"
	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/memctrl/memsidepf"
	"padc/internal/prefetch"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/telemetry/probe"
	"padc/internal/topology"
	"padc/internal/workload"
)

// coreSpaceShift separates per-core address spaces: multiprogrammed
// workloads share no data, as in the paper's setup.
const coreSpaceShift = 44

// histBuckets matches Figure 4(a): nine 200-cycle service-time bins.
const histBuckets = 9

// dropEvery is the APD scan period: every dropEvery cycles the run loop
// sweeps waiting prefetches past their drop threshold out of the buffers.
const dropEvery = 128

// coreCtx bundles one active core with its private hierarchy and stats.
type coreCtx struct {
	id   int
	prof workload.Profile
	core *cpu.Core

	l1   *cache.Cache
	l2   *cache.Cache // private or the shared LLC
	mshr *cache.MSHR  // ditto

	pf      prefetch.Prefetcher
	fdp     *prefetch.FDP     // non-nil when Filter == FilterFDP
	ddpf    *prefetch.DDPF    // non-nil when Filter == FilterDDPF
	dspatch *prefetch.DSPatch // non-nil when Prefetcher == PFDSPatch

	// Running counters (snapshotted into frozen when the core reaches its
	// instruction target).
	l2Demand      uint64
	l2Miss        uint64
	demandReqs    uint64
	prefSent      uint64
	prefUsed      uint64
	prefDropped   uint64
	prefServiced  uint64 // admitted prefetches DRAM completed (pure or promoted)
	prefInflight  uint64 // admitted prefetches currently buffered or in service
	intervalMiss  uint64
	busDemand     uint64
	busPrefPure   uint64 // serviced still-prefetch lines (usefulness pending)
	busPrefPromo  uint64 // serviced promoted prefetches (known useful)
	prefUsedAfter uint64 // pure-prefetch lines later consumed by a demand

	// Per-core wake scheduling. wake is the first cycle at which the core
	// may act (the event kernel leaves it asleep before then); settled is
	// the last cycle whose stall accounting the core has applied. stamp
	// versions the core's L1, L2 and MSHR file: every fill, allocate and
	// release bumps it (cpu.Stamper). It starts at 1, since a zero stamp
	// promises nothing. gens versions the lines by bucket: every fill and
	// allocate bumps its line's bucket (lineBucket). ticks and slept count
	// the cycles the core executed and the cycles it slept through.
	wake, settled uint64
	stamp         uint64
	gens          [lineBuckets]uint64
	ticks, slept  uint64

	frozen bool
	snap   stats.CoreResult
	// Traffic snapshot at freeze, so post-freeze execution (kept running
	// only to preserve contention) does not skew bus-traffic comparisons.
	snapBusDemand, snapBusPure, snapBusPromo, snapUsedAfter, snapDropped uint64
}

// System is one fully wired simulated machine. Controllers are kept as
// one flat slice in global channel order (domain 0's channels first) so
// the run loop, event aggregation and audits are topology-oblivious; the
// steering tables translate between global line addresses and per-domain
// controller state.
type System struct {
	cfg   Config
	padc  *core.PADC
	chans []*dram.Channel
	ctrls []*memctrl.Controller
	cores []*coreCtx

	// Topology wiring: compiled address steering, per-domain DRAM configs,
	// and per-global-channel domain lookups. A flat machine has one domain
	// and identity steering.
	steer     *topology.Steering
	domCfg    []dram.Config
	chanOff   []int
	ctrlDom   []int
	domThresh []func(r *memctrl.Request) uint64 // APD threshold bound per domain

	// Memory-side prefetch bookkeeping. Lines a memory-side prefetch
	// filled carry the L2's Mark until their first demand use or their
	// eviction; the filling domain is the line's own steering domain.
	msServiced uint64
	msUsed     uint64
	msDropped  uint64

	// Bandwidth-headroom tracking, enabled with dspatch or memside: per
	// global channel, 1 - bus-busy fraction over the last accuracy
	// interval (nil slices otherwise).
	headroom     []float64
	busPrev      []uint64
	lastInterval uint64

	// Per-domain service accounting (reported only on multi-domain runs).
	domServiced []uint64
	domRowHits  []uint64
	domPrefSent []uint64
	domPrefUsed []uint64

	cycle uint64

	// Global service accounting.
	serviced       uint64
	rowHits        uint64
	usefulServiced uint64
	usefulRowHits  uint64

	histUseful  []uint64
	histUseless []uint64
	pendingUse  map[uint64]uint64 // gline -> service time, usefulness unknown
	accTrace    []float64

	// probe carries the run loop's push events, and every controller's and
	// the PADC's, to the attached observers (nil when none is).
	probe *probe.Probe

	// Run-loop bounds, kept as fields so nextEvent (and the lockstep
	// property tests replaying its decisions) sees the loop's live state.
	runMax       uint64
	apdActive    bool
	nextSample   uint64
	nextRotate   uint64
	nextInterval uint64

	// Event-kernel accounting: jumps taken and cycles they covered.
	// Deliberately not part of stats.Results — results are identical
	// across kernels by contract.
	skips   uint64
	skipped uint64

	// onCycle, when non-nil, runs at the end of every executed cycle body
	// (test hook for the lockstep audit; nil costs one compare per cycle).
	onCycle func(now uint64)
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}

	topo := cfg.topo()
	names := make([]string, len(topo.Domains))
	for d, dom := range topo.Domains {
		names[d] = dom.Name
	}
	s.padc = core.NewTiered(names, cfg.Cores, cfg.PADC)
	steer, err := topo.Steering(cfg.DRAM.LinesPerRow())
	if err != nil {
		return nil, err
	}
	s.steer = steer

	// Each domain fronts its own DRAM config: the topology supplies the
	// channel count and optional timing part, the base config everything
	// else. A flat machine's single domain config equals cfg.DRAM exactly.
	s.domCfg = make([]dram.Config, len(topo.Domains))
	for d, dom := range topo.Domains {
		dc := cfg.DRAM
		dc.Channels = dom.Channels
		if dom.Timing != nil {
			dc.Timing = *dom.Timing
		}
		if err := dc.Validate(); err != nil {
			return nil, fmt.Errorf("sim: topology domain %q: %w", dom.Name, err)
		}
		s.domCfg[d] = dc
	}
	s.chanOff = topo.ChannelOffsets()
	nchan := topo.TotalChannels()

	s.chans = make([]*dram.Channel, nchan)
	s.ctrls = make([]*memctrl.Controller, nchan)
	s.ctrlDom = make([]int, nchan)
	s.domServiced = make([]uint64, len(topo.Domains))
	s.domRowHits = make([]uint64, len(topo.Domains))
	s.domPrefSent = make([]uint64, len(topo.Domains))
	s.domPrefUsed = make([]uint64, len(topo.Domains))
	s.domThresh = make([]func(r *memctrl.Request) uint64, len(topo.Domains))
	for d := range s.domThresh {
		d := d
		s.domThresh[d] = func(r *memctrl.Request) uint64 {
			if r.MemSide {
				return s.padc.MemSideDropThresholdIn(d)
			}
			return s.padc.DropThresholdIn(d, r.Core)
		}
	}
	stack, err := memctrl.ResolveStack(cfg.Policy, cfg.Rules)
	if err != nil {
		return nil, err
	}
	gi := 0
	for d, dom := range topo.Domains {
		dc := s.domCfg[d]
		// Each controller sees its own domain's PADC view, so APS
		// criticality follows tier-local accuracy. Only the critical,
		// urgent and rank rules read it; rigid stacks never do.
		st := s.padc.DomainView(d)
		for lc := 0; lc < dom.Channels; lc++ {
			s.chans[gi] = dram.NewChannel(dc)
			s.ctrls[gi] = memctrl.NewStack(stack, s.chans[gi], cfg.BufferSlots, st)
			s.ctrls[gi].SetLinkLatency(dom.LinkCycles)
			s.ctrlDom[gi] = d
			if dc.Refresh.Enabled() {
				eng := refresh.NewEngine(dc.Refresh, dc.Banks)
				// The run loop ticks controllers every TickEvery cycles
				// while they have work, so each Advance normally covers
				// exactly one tick period. The event kernel may skip across
				// provably-idle gaps; capping the delta at the period keeps the
				// first post-gap blocked-cycle charge identical to stepping.
				eng.CapDelta(dram.TickEvery)
				s.ctrls[gi].AttachRefresh(eng)
			}
			gi++
		}
	}

	var sharedL2 *cache.Cache
	var sharedMSHR *cache.MSHR
	if cfg.SharedL2 {
		sharedL2 = cache.New(cfg.L2)
		sharedMSHR = cache.NewMSHR(cfg.MSHR)
	}

	s.cores = make([]*coreCtx, len(cfg.Workload))
	for i, prof := range cfg.Workload {
		cc := &coreCtx{id: i, prof: prof, stamp: 1}
		cc.l1 = cache.New(cfg.L1)
		if cfg.SharedL2 {
			cc.l2, cc.mshr = sharedL2, sharedMSHR
		} else {
			cc.l2 = cache.New(cfg.L2)
			cc.mshr = cache.NewMSHR(cfg.MSHR)
		}
		cc.pf = buildPrefetcher(cfg.Prefetcher)
		if ds, ok := cc.pf.(*prefetch.DSPatch); ok {
			cc.dspatch = ds
		}
		switch cfg.Filter {
		case FilterDDPF:
			cc.ddpf = prefetch.NewDDPF(cc.pf)
			cc.pf = cc.ddpf
		case FilterFDP:
			cc.fdp = prefetch.NewFDP(cc.pf)
			cc.pf = cc.fdp
		}
		cc.core = cpu.New(i, cfg.Core, prof.Gen, s)
		if cfg.Profile {
			cc.core.EnableAccounting()
		}
		s.cores[i] = cc
	}
	if cfg.MemSide {
		// Arm the per-tier memory-side accuracy meters before Instrument
		// so their gauges register, and give every controller its own
		// candidate engine: the gate consults the tier's PADC memory-side
		// accuracy, the filter dedupes against the originating core's
		// cache and outstanding misses.
		s.padc.TrackMemSide()
		for gi, ctrl := range s.ctrls {
			d := s.ctrlDom[gi]
			eng := memsidepf.New(memsidepf.Config{}, s.domCfg[d].LinesPerRow())
			eng.SetGate(func() bool { return s.padc.MemSideAllowIn(d) })
			eng.SetFilter(func(c int, line uint64) bool {
				cs := s.cores[c]
				return cs.l2.Contains(line) || cs.mshr.Lookup(line) != nil
			})
			ctrl.AttachMemSide(eng)
		}
	}
	if cfg.MemSide || cfg.Prefetcher == PFDSPatch {
		s.headroom = make([]float64, nchan)
		for i := range s.headroom {
			s.headroom[i] = 1 // cold machine: bus idle
		}
		s.busPrev = make([]uint64, nchan)
	}
	if rec := cfg.Flight; rec != nil {
		rec.Configure(nchan, cfg.DRAM.Banks)
		if len(topo.Domains) > 1 {
			doms := make([]string, nchan)
			for i, d := range s.ctrlDom {
				doms[i] = names[d]
			}
			rec.LabelDomains(doms)
		}
		for i, ctrl := range s.ctrls {
			rules, _ := ctrl.RuleWins()
			rec.AttachRules(i, rules, func() []uint64 {
				_, wins := ctrl.RuleWins()
				return wins
			})
			// The bus_busy column rides the headroom gate, so heatmaps from
			// runs without the prefetch subsystem keep their historical
			// byte-identical format.
			if s.headroom != nil {
				ch := s.chans[i]
				rec.AttachBus(i, func() uint64 { return ch.BusBusyCycles })
			}
		}
	}

	// The push observers subscribe to one probe, and every producer
	// publishes to it.
	var subs []probe.Subscriber
	if cfg.Telemetry != nil {
		subs = append(subs, cfg.Telemetry)
	}
	if cfg.Flight != nil {
		subs = append(subs, cfg.Flight)
	}
	if cfg.Lifecycle != nil {
		subs = append(subs, cfg.Lifecycle)
	}
	s.probe = probe.New(subs...)
	s.padc.AttachProbe(s.probe)
	for i, ctrl := range s.ctrls {
		ctrl.AttachProbe(s.probe, i)
	}

	if cfg.TrackServiceHist {
		s.histUseful = make([]uint64, histBuckets)
		s.histUseless = make([]uint64, histBuckets)
		s.pendingUse = make(map[uint64]uint64)
	}
	if cfg.Telemetry != nil {
		s.instrument(cfg.Telemetry)
	}
	return s, nil
}

// instrument registers every subsystem's metrics into tel, once; the
// epoch sampler and the exporters read them when they need them.
func (s *System) instrument(tel *telemetry.Telemetry) {
	for i, ctrl := range s.ctrls {
		ctrl.Instrument(tel, i)
	}
	s.padc.Instrument(tel)

	tel.CounterFunc("sim/serviced", func() uint64 { return s.serviced })
	tel.CounterFunc("sim/row_hits", func() uint64 { return s.rowHits })
	tel.GaugeFunc("sim/row_hit_rate", func() float64 {
		if s.serviced == 0 {
			return 0
		}
		return float64(s.rowHits) / float64(s.serviced)
	})
	// Bandwidth-headroom and memory-side series exist only when those
	// paths are on, keeping the baseline metric namespace unchanged.
	if s.headroom != nil {
		for i := range s.ctrls {
			i := i
			tel.GaugeFunc(fmt.Sprintf("memctrl%d/bw_headroom", i), func() float64 { return s.headroom[i] })
		}
	}
	if s.cfg.MemSide {
		tel.CounterFunc("sim/memside_serviced", func() uint64 { return s.msServiced })
		tel.CounterFunc("sim/memside_used", func() uint64 { return s.msUsed })
		tel.CounterFunc("sim/memside_dropped", func() uint64 { return s.msDropped })
	}

	// Per-domain series exist only on multi-tier machines, so flat runs
	// keep the exact pre-topology metric namespace.
	if topo := s.steer.Topology(); len(topo.Domains) > 1 {
		for d := range topo.Domains {
			d := d
			pre := "dom/" + topo.Domains[d].Name
			tel.CounterFunc(pre+"/serviced", func() uint64 { return s.domServiced[d] })
			tel.CounterFunc(pre+"/row_hits", func() uint64 { return s.domRowHits[d] })
			tel.CounterFunc(pre+"/pref_sent", func() uint64 { return s.domPrefSent[d] })
			tel.CounterFunc(pre+"/pref_used", func() uint64 { return s.domPrefUsed[d] })
		}
	}

	for _, cs := range s.cores {
		cs := cs
		pre := fmt.Sprintf("core%d", cs.id)
		tel.CounterFunc(pre+"/retired", func() uint64 { return cs.core.Retired })
		tel.CounterFunc(pre+"/l2_misses", func() uint64 { return cs.l2Miss })
		tel.CounterFunc(pre+"/pref_sent", func() uint64 { return cs.prefSent })
		tel.CounterFunc(pre+"/pref_used", func() uint64 { return cs.prefUsed })
		tel.CounterFunc(pre+"/pref_dropped", func() uint64 { return cs.prefDropped })
		tel.CounterFunc(pre+"/mshr_stalls", func() uint64 { return cs.mshr.FullStalls })
		tel.CounterFunc(pre+"/mshr_stalls_demand", func() uint64 { return cs.mshr.FullStallsDemand })
		tel.CounterFunc(pre+"/mshr_stalls_pref", func() uint64 { return cs.mshr.FullStallsPref })
		tel.GaugeFunc(pre+"/mshr_occupancy", func() float64 { return float64(cs.mshr.Len()) })
		if acct := cs.core.Account(); acct != nil {
			// Per-epoch deltas of these expose stall phases in the series.
			for k := cpu.CycleClass(0); k < cpu.NumCycleClasses; k++ {
				k := k
				tel.CounterFunc(fmt.Sprintf("%s/cycles_%s", pre, k), func() uint64 { return acct[k] })
			}
		}
		tel.GaugeFunc(pre+"/ipc", func() float64 {
			if s.cycle == 0 {
				return 0
			}
			return float64(cs.core.Retired) / float64(s.cycle)
		})
	}
}

func buildPrefetcher(kind PrefetcherKind) prefetch.Prefetcher {
	switch kind {
	case PFStream:
		return prefetch.NewStream(prefetch.StreamConfig{})
	case PFStride:
		return prefetch.NewStride(prefetch.StrideConfig{})
	case PFCDC:
		return prefetch.NewCDC(prefetch.CDCConfig{})
	case PFMarkov:
		return prefetch.NewMarkov(prefetch.MarkovConfig{})
	case PFDSPatch:
		return prefetch.NewDSPatch(prefetch.DSPatchConfig{})
	default:
		return prefetch.Nop{}
	}
}

// coreOffset decorrelates per-core address spaces: without it, identical
// applications on different cores would walk the same bank/column sequence
// in lockstep (real processes differ in physical page placement). The
// offset is added below the core-id bits, preserving spatial contiguity.
func coreOffset(coreID int) uint64 {
	x := uint64(coreID) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x & (1<<coreSpaceShift - 1)
}

func gline(coreID int, line uint64) uint64 {
	return uint64(coreID)<<coreSpaceShift | (line+coreOffset(coreID))&(1<<coreSpaceShift-1)
}

func (s *System) ctrlFor(a dram.Address) *memctrl.Controller { return s.ctrls[a.Channel] }

// mapLine steers a global line address to its owning domain and maps it
// through that domain's DRAM config, returning a machine-global address
// (Channel is the global channel index). On a flat machine steering is
// the identity and this is exactly cfg.DRAM.Map.
func (s *System) mapLine(g uint64) dram.Address {
	d, local := s.steer.Steer(g)
	a := s.domCfg[d].Map(local)
	a.Channel += s.chanOff[d]
	return a
}

// domainOfLine returns the memory domain a global line address steers to.
func (s *System) domainOfLine(g uint64) int {
	d, _ := s.steer.Steer(g)
	return d
}

// Load implements cpu.Memory: the demand-load path through L1, the
// last-level cache, MSHRs and the memory request buffer. Statistics and
// prefetcher training fire only on a load's first attempt; retries after a
// resource-full rejection re-walk the hierarchy silently.
func (s *System) Load(coreID int, seq, line, pc uint64, _ bool, now uint64, firstTry bool) cpu.LoadResult {
	cs := s.cores[coreID]
	g := gline(coreID, line)

	if cs.l1.Access(g).Hit {
		return cpu.LoadResult{ReadyAt: now + s.cfg.L1.HitCycles}
	}

	info := cs.l2.Access(g)
	if info.Hit {
		if firstTry {
			cs.l2Demand++
		}
		if info.WasPrefetch {
			// A memory-side fill (marked in the L2) credits the meter of the
			// tier the line steers to, not any core's: the controller sent
			// it, not a core engine.
			if info.Marked {
				s.msUsed++
				s.padc.NoteMemSideUsed(s.domainOfLine(g))
			} else {
				s.noteUseful(cs, g, info.FillRowHit, false)
			}
		}
		cs.l1.Fill(g, false, false)
		s.touchLine(cs, g)
		if firstTry {
			s.observe(cs, prefetch.AccessEvent{LineAddr: g, PC: pc, Miss: false, Cycle: now}, now)
		}
		return cpu.LoadResult{ReadyAt: now + s.cfg.L2.HitCycles}
	}

	// Last-level miss. A merge with an outstanding demand fill is the L1
	// MSHR's job in real hardware: it neither re-counts the miss nor
	// retrains the prefetcher.
	if e := cs.mshr.Lookup(g); e != nil && !e.Prefetch {
		e.Waiters = append(e.Waiters, cache.Waiter{Core: coreID, Seq: seq})
		return cpu.LoadResult{Pending: true}
	}

	if firstTry {
		cs.l2Demand++
		cs.l2Miss++
		cs.intervalMiss++
		if cs.fdp != nil {
			cs.fdp.NoteDemandMiss(g)
		}
		s.observe(cs, prefetch.AccessEvent{LineAddr: g, PC: pc, Miss: true, Cycle: now}, now)
	}

	if e := cs.mshr.Lookup(g); e != nil {
		// The demand caught an in-flight prefetch: promote it to demand
		// criticality; it counts as useful (§4.1, footnote 9).
		if e.Prefetch {
			e.Prefetch = false
			addr := s.mapLine(g)
			s.ctrlFor(addr).MatchPrefetch(coreID, g, now)
			s.noteUseful(cs, g, false, true)
		}
		e.Waiters = append(e.Waiters, cache.Waiter{Core: coreID, Seq: seq})
		return cpu.LoadResult{Pending: true}
	}

	if cs.mshr.Full() {
		if firstTry {
			cs.mshr.NoteFullStall(false)
			if s.probe != nil {
				s.probe.Publish(probe.Event{Kind: probe.MSHRStall, Cycle: now, Line: g, Core: int16(coreID), Chan: -1, Bank: -1})
			}
		}
		// A retry of this load walks the L1, the L2 and the MSHR file and
		// fails again here, touching nothing but LRU clocks, until one of
		// them changes: the stamp promises exactly that. It also fails
		// while the file stays full and g is neither filled nor allocated,
		// which its bucket's generation promises (Holds). A buffer-full
		// rejection below gets no stamp, since every retry of it books a
		// reject at the controller.
		res := cpu.LoadResult{Retry: true}
		if s.cfg.Kernel == KernelEvents {
			res.Stamp, res.Gen = cs.stamp, cs.gens[lineBucket(g)]
		}
		return res
	}
	addr := s.mapLine(g)
	ctrl := s.ctrlFor(addr)
	req := ctrl.NewRequest()
	*req = memctrl.Request{Core: coreID, Line: g, Addr: addr, Arrival: now}
	if !ctrl.Enqueue(req) {
		ctrl.Recycle(req)
		return cpu.LoadResult{Retry: true}
	}
	e := cs.mshr.Allocate(g, false)
	if e == nil {
		// Cannot happen after the Full check, but stay safe.
		return cpu.LoadResult{Retry: true}
	}
	s.touchLine(cs, g)
	e.Waiters = append(e.Waiters, cache.Waiter{Core: coreID, Seq: seq})
	cs.demandReqs++
	return cpu.LoadResult{Pending: true}
}

// noteUseful books one useful prefetch for the core. For a line already in
// the cache, fillRowHit feeds RBHU; for a promotion the row-hit status is
// accounted at service completion instead.
func (s *System) noteUseful(cs *coreCtx, g uint64, fillRowHit, promotion bool) {
	cs.prefUsed++
	d := s.domainOfLine(g)
	s.padc.NoteUsed(d, cs.id)
	s.domPrefUsed[d]++
	if cs.fdp != nil {
		cs.fdp.CountUseful()
		if promotion {
			cs.fdp.CountLate()
		}
	}
	if cs.ddpf != nil {
		cs.ddpf.Feedback(g, true)
	}
	if !promotion {
		cs.prefUsedAfter++
		s.usefulServiced++
		if fillRowHit {
			s.usefulRowHits++
		}
		if s.pendingUse != nil {
			if t, ok := s.pendingUse[g]; ok {
				s.histUseful[histBucket(t)]++
				delete(s.pendingUse, g)
			}
		}
	}
}

// prefetchBudget returns how many prefetches the memory system can accept
// from this core right now: free MSHR entries and free request-buffer
// slots (summed across controllers) both bound it. Passing this to the
// prefetcher lets stateful engines apply backpressure instead of losing
// lines.
func (s *System) prefetchBudget(cs *coreCtx) int {
	b := cs.mshr.Capacity() - cs.mshr.Len()
	free := 0
	for _, ctrl := range s.ctrls {
		free += s.cfg.BufferSlots - ctrl.Occupancy()
	}
	if free < b {
		b = free
	}
	return b
}

// observe feeds the core's prefetcher and issues its candidates into the
// memory system. Candidates that race with a concurrent fill (already in
// cache or outstanding) are silently absorbed; a candidate that still
// cannot enter (e.g. its channel's buffer is the full one) is dropped, the
// paper's coverage-loss-under-full-buffer behavior (§6.1).
func (s *System) observe(cs *coreCtx, ev prefetch.AccessEvent, now uint64) {
	for _, cand := range cs.pf.Observe(ev, s.prefetchBudget(cs)) {
		if cs.l2.Contains(cand) || cs.mshr.Lookup(cand) != nil {
			continue // already present or outstanding
		}
		if cs.mshr.Full() {
			cs.mshr.NoteFullStall(true)
			continue
		}
		addr := s.mapLine(cand)
		ctrl := s.ctrlFor(addr)
		req := ctrl.NewRequest()
		*req = memctrl.Request{
			Core: cs.id, Line: cand, Addr: addr,
			Prefetch: true, WasPref: true, Arrival: now,
		}
		if !ctrl.Enqueue(req) {
			ctrl.Recycle(req)
			continue
		}
		cs.mshr.Allocate(cand, true)
		s.touchLine(cs, cand)
		cs.prefSent++
		cs.prefInflight++
		d := s.ctrlDom[addr.Channel]
		s.padc.NoteSent(d, cs.id)
		s.domPrefSent[d]++
		if cs.fdp != nil {
			cs.fdp.CountSent()
		}
	}
}

func histBucket(t uint64) int {
	b := int(t / 200)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// complete retires one serviced DRAM request back into the hierarchy. It
// makes the request's last read; the run loop recycles it right after.
func (s *System) complete(r *memctrl.Request, now uint64) {
	if r.MemSide {
		s.completeMemSide(r)
		return
	}
	cs := s.cores[r.Core]
	s.retire(r)
	if r.WasPref {
		cs.prefServiced++
		cs.prefInflight--
	}
	svc := r.FinishAt - r.Arrival
	hit := r.RowState == dram.RowHit
	switch {
	case !r.WasPref: // demand
		cs.busDemand++
		s.usefulServiced++
		if hit {
			s.usefulRowHits++
		}
	case !r.Prefetch: // promoted prefetch: known useful
		cs.busPrefPromo++
		s.usefulServiced++
		if hit {
			s.usefulRowHits++
		}
		if s.histUseful != nil {
			s.histUseful[histBucket(svc)]++
		}
	default: // still a prefetch: usefulness resolves later
		cs.busPrefPure++
		if s.pendingUse != nil {
			s.pendingUse[r.Line] = svc
		}
	}

	// One touch covers the L2 fill and the L1 fill of the line, which
	// come before the deliveries read the stamp; the release after them
	// takes its own (see touch).
	s.touchLine(cs, r.Line)
	s.evicted(cs, cs.l2.Fill(r.Line, r.Prefetch, hit), r.Prefetch)
	if e := cs.mshr.Lookup(r.Line); e != nil {
		s.release(cs, e, r)
	}
}

// retire books what every serviced request shares, whoever issued it:
// the serviced and row-hit counts (machine-wide and for the request's
// memory domain), and the Complete event.
func (s *System) retire(r *memctrl.Request) {
	s.serviced++
	d := s.ctrlDom[r.Addr.Channel]
	s.domServiced[d]++
	if r.RowState == dram.RowHit {
		s.rowHits++
		s.domRowHits[d]++
	}
	if s.probe != nil {
		s.probe.Publish(probe.Event{
			Kind: probe.Complete, Cycle: r.FinishAt, Line: r.Line,
			Enqueue: r.Arrival, Promote: r.PromotedAt, Issue: r.ServiceAt,
			Pref: r.Prefetch, WasPref: r.WasPref, Row: r.RowState,
			Core: int16(r.Core), Chan: int16(r.Addr.Channel), Bank: int16(r.Addr.Bank),
		})
	}
}

// release hands the filled line to every load waiting on its MSHR entry,
// fills the L1 for them, and frees the entry.
func (s *System) release(cs *coreCtx, e *cache.MSHREntry, r *memctrl.Request) {
	if len(e.Waiters) > 0 {
		cs.l1.Fill(r.Line, false, false)
	}
	for _, w := range e.Waiters {
		s.deliver(s.cores[w.Core], w.Seq, r.FinishAt)
	}
	cs.mshr.Release(r.Line)
	s.touch(cs)
}

// evicted books the line an L2 fill displaced. An unused memory-side fill
// ages out silently: no core engine issued it, so no core-side feedback
// fires. An unused core-side prefetch trains DDPF and resolves as useless
// in the service histogram. A demand line pushed out by a core-side
// prefetch fill is FDP pollution.
func (s *System) evicted(cs *coreCtx, ev cache.Eviction, byCorePrefetch bool) {
	switch {
	case !ev.Valid, ev.Marked: // nothing evicted, or a memory-side fill
	case ev.WasPrefetch:
		if cs.ddpf != nil {
			cs.ddpf.Feedback(ev.LineAddr, false)
		}
		if s.pendingUse != nil {
			if t, ok := s.pendingUse[ev.LineAddr]; ok {
				s.histUseless[histBucket(t)]++
				delete(s.pendingUse, ev.LineAddr)
			}
		}
	case byCorePrefetch && cs.fdp != nil:
		cs.fdp.NoteEviction(ev.LineAddr)
	}
}

// completeMemSide retires a serviced memory-side prefetch: a DRAM
// service and an L2 fill for the originating core, but no MSHR entry
// and no core-side prefetch conservation — no core ever sent this
// request, so the core-side PrefSent/Serviced/Inflight identity never
// sees it. The tier's memory-side meter books the send here, at the
// request's terminal event, pairing with NoteMemSideUsed on first use.
func (s *System) completeMemSide(r *memctrl.Request) {
	cs := s.cores[r.Core]
	s.retire(r)
	s.msServiced++
	s.padc.NoteMemSideSent(s.ctrlDom[r.Addr.Channel])

	// No FDP pollution note: no core-side engine issued this fill.
	s.touchLine(cs, r.Line)
	s.evicted(cs, cs.l2.Fill(r.Line, true, r.RowState == dram.RowHit), false)
	cs.l2.Mark(r.Line)

	// A demand already waiting on this line is satisfied by the fill; a
	// core-side prefetch entry keeps its own accounting and is left alone
	// (its request completes against an already-filled line, harmlessly).
	if e := cs.mshr.Lookup(r.Line); e != nil && !e.Prefetch {
		s.release(cs, e, r)
	}
}

// dropExpired runs the APD scan over every controller, each judged by its
// own domain's drop thresholds, and recycles every dropped request once
// its MSHR entry and counters are settled.
func (s *System) dropExpired(now uint64) {
	for i, ctrl := range s.ctrls {
		if ctrl.Pending() == 0 {
			continue
		}
		d := s.ctrlDom[i]
		for _, r := range ctrl.DropExpired(now, s.domThresh[d]) {
			if r.MemSide {
				// No MSHR entry to release and no core-side conservation:
				// the drop is a terminal event on the tier's own stream.
				s.msDropped++
				s.padc.NoteMemSideSent(d)
			} else {
				cs := s.cores[r.Core]
				cs.mshr.Release(r.Line)
				s.touch(cs)
				cs.prefDropped++
				cs.prefInflight--
			}
			ctrl.Recycle(r)
		}
	}
}

// touch records a change to cs's L1, L2 or MSHR file: it bumps the
// core's stamp, which voids its parked retries, and pulls its wake-up to
// the current cycle so it is re-evaluated. If the change lands before the
// core's tick slot in this cycle the core ticks now; otherwise the
// end-of-cycle refresh recomputes its wake-up. A shared L2 and MSHR file
// belong to every core.
//
// A touch comes after the change it records whenever the core may read
// its stamp in between: a delivery's NextEvent restamps the loads Holds
// keeps parked, so an MSHR release after the deliveries must move the
// stamp again, or those loads would sleep through the freed entry.
func (s *System) touch(cs *coreCtx) {
	if s.cfg.SharedL2 {
		for _, o := range s.cores {
			o.stamp++
			o.wake = min(o.wake, s.cycle)
		}
		return
	}
	cs.stamp++
	cs.wake = min(cs.wake, s.cycle)
}

// touchLine is touch for a fill or an allocate of line g, which also
// bumps g's bucket generation: a load of g parked on a full file may now
// hit or merge.
func (s *System) touchLine(cs *coreCtx, g uint64) {
	b := lineBucket(g)
	if s.cfg.SharedL2 {
		for _, o := range s.cores {
			o.gens[b]++
		}
	} else {
		cs.gens[b]++
	}
	s.touch(cs)
}

// lineBuckets is the size of a core's line-generation table. Two lines
// that share a bucket only cost each other a retry that fails.
const lineBuckets = 64

// lineBucket hashes a global line address onto its generation bucket.
func lineBucket(g uint64) int { return int(g * 0x9e3779b97f4a7c15 >> 58) }

// Stamp implements cpu.Stamper.
func (s *System) Stamp(coreID int) uint64 { return s.cores[coreID].stamp }

// Holds implements cpu.Stamper. A load of g rejected on a full MSHR file
// missed the L1, the L2 and the file; only a fill or an allocate of g,
// each of which moves g's bucket, can change that, so while the file
// stays full and the bucket does not move, a retry fails again.
func (s *System) Holds(coreID int, line, gen uint64) bool {
	cs := s.cores[coreID]
	return cs.mshr.Full() && cs.gens[lineBucket(gline(coreID, line))] == gen
}

// settle applies the stall accounting of the cycles cs slept through, up
// to and including cycle now. Anything that reads a core's stall counters
// settles it first.
func (s *System) settle(cs *coreCtx, now uint64) {
	if n := now - cs.settled; n > 0 {
		cs.core.Skip(n)
		cs.slept += n
		cs.settled = now
	}
}

// tick executes cycle now on cs and takes its next wake-up claim.
func (s *System) tick(cs *coreCtx, now uint64) {
	s.settle(cs, now-1)
	cs.core.Tick(now)
	cs.settled = now
	cs.ticks++
	cs.wake = cs.core.NextEvent(now)
}

// deliver completes the load seq on cs and re-takes its wake-up claim.
func (s *System) deliver(cs *coreCtx, seq, at uint64) {
	s.settle(cs, s.cycle)
	cs.core.Complete(seq, at)
	cs.wake = cs.core.NextEvent(s.cycle)
}

func (s *System) freeze(cs *coreCtx) {
	s.settle(cs, s.cycle)
	cs.frozen = true
	cs.snap = stats.CoreResult{
		Benchmark:    cs.prof.Name,
		Cycles:       s.cycle,
		Retired:      cs.core.Retired,
		Loads:        cs.core.Loads,
		StallCycles:  cs.core.StallCycles,
		L2Demand:     cs.l2Demand,
		L2Misses:     cs.l2Miss,
		DemandReqs:   cs.demandReqs,
		PrefSent:     cs.prefSent,
		PrefUsed:     cs.prefUsed,
		PrefDropped:  cs.prefDropped,
		PrefServiced: cs.prefServiced,
		PrefInflight: cs.prefInflight,
		Attribution:  cs.core.AccountSnapshot(),
	}
	cs.snapBusDemand = cs.busDemand
	cs.snapBusPure = cs.busPrefPure
	cs.snapBusPromo = cs.busPrefPromo
	cs.snapUsedAfter = cs.prefUsedAfter
	cs.snapDropped = cs.prefDropped
}

// Run drives the system until every active core retires the target
// instruction count (cores that finish early keep executing to preserve
// contention, with their statistics frozen, following the paper's
// methodology) and returns the collected results.
//
// Two kernels drive the same per-cycle body. KernelStepped executes every
// cycle and ticks every core — the reference. KernelEvents ticks a core
// only from its wake-up claim on (its Core.NextEvent, pulled forward by
// deliveries and stamp changes), lets MSHR-full retries park until their
// core's stamp moves, and after each executed cycle jumps straight to the
// next interesting cycle of any component (nextEvent). A sleeping core's
// stall accounting is applied arithmetically via Core.Skip when it wakes
// or when something reads it. Both kernels produce identical results by
// construction, and the lockstep differential suite enforces it.
func (s *System) Run() (stats.Results, error) {
	cfg := s.cfg
	s.runMax = cfg.maxCycles()
	const interval = core.IntervalCycles
	s.apdActive = cfg.PADC.EnableAPD && (cfg.Prefetcher != PFNone || cfg.MemSide)
	events := cfg.Kernel == KernelEvents

	// The first accuracy samples come early (geometric warm-up) so APS
	// escapes its optimistic cold-start quickly, then settle to the
	// paper's fixed interval.
	s.nextInterval = interval / 8

	// Epoch sampling: disabled telemetry leaves nextSample at the
	// unreachable maximum, so the per-cycle cost is one compare.
	epoch := cfg.Telemetry.EpochCycles()
	s.nextSample = ^uint64(0)
	var lastSample uint64
	if epoch > 0 {
		s.nextSample = epoch
	}

	// Flight-recorder rotation runs on its own period, same disabled-cost
	// trick as epoch sampling: one compare per cycle when off.
	fEpoch := cfg.Flight.EpochCycles()
	s.nextRotate = ^uint64(0)
	if fEpoch > 0 {
		s.nextRotate = fEpoch
	}

	remaining := len(s.cores)
	for remaining > 0 && s.cycle < s.runMax {
		s.cycle++
		now := s.cycle

		// Rotate the tick order so no core systematically wins FCFS ties
		// (hardware arbiters round-robin equal-priority requesters).
		j := int(now % uint64(len(s.cores)))
		for range s.cores {
			cs := s.cores[j]
			if j++; j == len(s.cores) {
				j = 0
			}
			if events && now < cs.wake {
				continue // asleep: this cycle repeats its stall accounting
			}
			s.tick(cs, now)
		}

		if now%dram.TickEvery == 0 {
			for _, ctrl := range s.ctrls {
				for _, r := range ctrl.Tick(now, cfg.Cores) {
					s.complete(r, now)
					ctrl.Recycle(r)
				}
			}
		}

		if s.apdActive && now%dropEvery == 0 {
			s.dropExpired(now)
		}

		if now >= s.nextSample {
			s.settleAll(now)
			cfg.Telemetry.Sample(now)
			lastSample = now
			s.nextSample += epoch
		}

		if now >= s.nextRotate {
			cfg.Flight.Rotate(now)
			s.nextRotate += fEpoch
		}

		if now >= s.nextInterval {
			if s.headroom != nil {
				s.updateHeadroom(now)
			}
			s.padc.EndInterval(now)
			for _, cs := range s.cores {
				if cs.fdp != nil {
					cs.fdp.EndInterval(cs.intervalMiss)
				}
				cs.intervalMiss = 0
			}
			if cfg.TrackAccuracyTrace {
				s.accTrace = append(s.accTrace, s.padc.AccuracyIn(0, 0))
			}
			if s.nextInterval < interval {
				s.nextInterval *= 2
			} else {
				s.nextInterval += interval
			}
		}

		for _, cs := range s.cores {
			if !cs.frozen && cs.core.Retired >= cfg.TargetInsts {
				s.freeze(cs)
				remaining--
			}
			if cs.wake <= now {
				// A stamp change this cycle, after the core's tick slot:
				// re-take its claim with the parked retries it voided.
				cs.wake = cs.core.NextEvent(now)
			}
		}

		if s.onCycle != nil {
			s.onCycle(now)
		}
		if events && remaining > 0 {
			if next := s.nextEvent(now); next > now+1 {
				// Cycles in (now, next) are provably inert: no retire,
				// issue, fetch, DRAM action, refresh action or epoch
				// boundary can occur. Apply their stall accounting
				// arithmetically and land the loop's increment on next.
				n := next - now - 1
				s.cycle += n
				s.skips++
				s.skipped += n
			}
		}
	}

	s.settleAll(s.cycle)
	// Close the partial last epoch so short runs still yield a series.
	if epoch > 0 && s.cycle > lastSample {
		cfg.Telemetry.Sample(s.cycle)
	}
	// Likewise the flight recorder's partial last epoch (a no-op when the
	// run ended exactly on a rotation boundary).
	cfg.Flight.Rotate(s.cycle)

	if remaining > 0 {
		// Safety bound hit: freeze stragglers so results stay meaningful,
		// but surface the truncation.
		for _, cs := range s.cores {
			if !cs.frozen {
				s.freeze(cs)
			}
		}
		return s.results(), fmt.Errorf("sim: %d core(s) hit the %d-cycle safety bound before retiring %d instructions",
			remaining, s.runMax, cfg.TargetInsts)
	}
	return s.results(), nil
}

// updateHeadroom closes one accuracy interval's bandwidth window: each
// channel's headroom is 1 minus its bus-busy fraction over the interval,
// and the machine-wide aggregate feeds every DSPatch selector. Interval
// boundaries execute identically under both kernels, so the samples —
// and the bias decisions they drive — are kernel-independent.
func (s *System) updateHeadroom(now uint64) {
	window := now - s.lastInterval
	s.lastInterval = now
	if window == 0 {
		return
	}
	var busy uint64
	for i, ch := range s.chans {
		delta := ch.BusBusyCycles - s.busPrev[i]
		s.busPrev[i] = ch.BusBusyCycles
		busy += delta
		h := 1 - float64(delta)/float64(window)
		if h < 0 {
			h = 0
		}
		s.headroom[i] = h
	}
	agg := 1 - float64(busy)/(float64(window)*float64(len(s.chans)))
	if agg < 0 {
		agg = 0
	}
	for _, cs := range s.cores {
		if cs.dspatch != nil {
			cs.dspatch.SetBandwidthHeadroom(agg)
		}
	}
}

// settleAll settles every core through cycle now.
func (s *System) settleAll(now uint64) {
	for _, cs := range s.cores {
		s.settle(cs, now)
	}
}

// nextEvent computes the first cycle after now at which any component can
// act: core wake-up claims, controller work (completion
// harvest, bank arbitration, refresh duties — lifted onto the DRAM tick
// grid, since controllers only tick there), the APD drop scan, and the
// telemetry/flight/PADC epoch boundaries. Every cycle strictly between
// now and the returned value is inert: stepping through it would only
// repeat the stall accounting Core.Skip reproduces arithmetically.
func (s *System) nextEvent(now uint64) uint64 {
	next := s.runMax
	for _, cs := range s.cores {
		if cs.wake < next {
			next = cs.wake
		}
	}
	nextGrid := now - now%dram.TickEvery + dram.TickEvery
	for _, ctrl := range s.ctrls {
		e := ctrl.NextEvent(now)
		if e == memctrl.NeverEvent {
			continue
		}
		// Controllers act only on grid ticks: lift the event to the first
		// grid cycle at or after it — exactly where the stepped loop would
		// first service it.
		if e < nextGrid {
			e = nextGrid
		} else if r := e % dram.TickEvery; r != 0 {
			e += dram.TickEvery - r
		}
		if e < next {
			next = e
		}
	}
	if s.apdActive {
		// The drop scan only acts on buffered prefetches; while any exist
		// the next dropEvery boundary must execute so drops land on the
		// same cycle the stepped loop drops them.
		for _, ctrl := range s.ctrls {
			if ctrl.HasPrefetches() {
				if e := now - now%dropEvery + dropEvery; e < next {
					next = e
				}
				break
			}
		}
	}
	if s.nextSample < next {
		next = s.nextSample
	}
	if s.nextRotate < next {
		next = s.nextRotate
	}
	if s.nextInterval < next {
		next = s.nextInterval
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// SkipStats reports the event kernel's jump count and the cycles those
// jumps covered (both zero under KernelStepped). Executed cycles plus
// skipped cycles always equal Results.Cycles.
func (s *System) SkipStats() (skips, skippedCycles uint64) { return s.skips, s.skipped }

func (s *System) results() stats.Results {
	r := stats.Results{
		Cycles:         s.cycle,
		Serviced:       s.serviced,
		RowHits:        s.rowHits,
		UsefulServiced: s.usefulServiced,
		UsefulRowHits:  s.usefulRowHits,
	}
	for _, cs := range s.cores {
		r.PerCore = append(r.PerCore, cs.snap)
		used := cs.snapUsedAfter
		if used > cs.snapBusPure {
			used = cs.snapBusPure
		}
		r.Bus.Demand += cs.snapBusDemand
		r.Bus.UsefulPref += cs.snapBusPromo + used
		r.Bus.UselessPref += cs.snapBusPure - used
		r.Dropped += cs.snapDropped
	}
	for _, ctrl := range s.ctrls {
		r.BufferRejects += ctrl.RejectsFull
		if eng := ctrl.Refresh(); eng != nil {
			r.Refresh.Issued += eng.Issued
			r.Refresh.Postponed += eng.Postponed
			r.Refresh.PulledIn += eng.PulledIn
			r.Refresh.Forced += eng.Forced
			r.Refresh.BlockedCycles += eng.BlockedCycles
		}
	}
	if topo := s.steer.Topology(); len(topo.Domains) > 1 {
		r.Domains = make([]stats.DomainStats, len(topo.Domains))
		for d, dom := range topo.Domains {
			ds := stats.DomainStats{
				Name: dom.Name, Channels: dom.Channels, LinkCycles: dom.LinkCycles,
				Serviced: s.domServiced[d], RowHits: s.domRowHits[d],
				PrefSent: s.domPrefSent[d], PrefUsed: s.domPrefUsed[d],
			}
			for lc := 0; lc < dom.Channels; lc++ {
				gi := s.chanOff[d] + lc
				ds.BusBusyCycles += s.chans[gi].BusBusyCycles
				if eng := s.ctrls[gi].Refresh(); eng != nil {
					ds.RefreshBlocked += eng.BlockedCycles
				}
			}
			ds.Accuracy = make([]float64, s.cfg.Cores)
			for c := range ds.Accuracy {
				ds.Accuracy[c] = s.padc.AccuracyIn(d, c)
			}
			r.Domains[d] = ds
		}
	}
	if s.cfg.MemSide {
		ms := &stats.MemSideStats{Serviced: s.msServiced, Used: s.msUsed, Dropped: s.msDropped}
		for _, ctrl := range s.ctrls {
			if eng := ctrl.MemSide(); eng != nil {
				ms.Generated += eng.Generated
				ms.Enqueued += eng.Enqueued
				ms.Issued += eng.Issued
				ms.Filtered += eng.Filtered
				ms.DroppedOverflow += eng.DroppedOverflow
				ms.DroppedStale += eng.DroppedStale
				ms.DroppedPressure += eng.DroppedPressure
				ms.GateClosed += eng.GateClosed
			}
		}
		r.MemSide = ms
	}
	var covGood, covPred, accGood, accPred uint64
	for _, cs := range s.cores {
		if cs.dspatch == nil {
			continue
		}
		if r.DSPatch == nil {
			// Every selector is fed the same machine-wide sample.
			r.DSPatch = &stats.DSPatchStats{Headroom: cs.dspatch.BandwidthHeadroom()}
		}
		r.DSPatch.Issued += cs.dspatch.Issued
		r.DSPatch.CovPSelected += cs.dspatch.CovPSelected
		r.DSPatch.AccPSelected += cs.dspatch.AccPSelected
		cg, cp, ag, ap := cs.dspatch.Meters()
		covGood, covPred, accGood, accPred = covGood+cg, covPred+cp, accGood+ag, accPred+ap
	}
	if r.DSPatch != nil {
		r.DSPatch.CovAccuracy = ratio(covGood, covPred)
		r.DSPatch.AccAccuracy = ratio(accGood, accPred)
	}
	if s.histUseful != nil {
		// Prefetches still pending classification at the end of the run
		// were never used: useless.
		for _, t := range s.pendingUse {
			s.histUseless[histBucket(t)]++
		}
		r.ServiceHistUseful = append([]uint64(nil), s.histUseful...)
		r.ServiceHistUseless = append([]uint64(nil), s.histUseless...)
	}
	r.AccuracyTrace = append([]float64(nil), s.accTrace...)
	return r
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Run is the package-level convenience: build a System from cfg and run it.
func Run(cfg Config) (stats.Results, error) {
	s, err := New(cfg)
	if err != nil {
		return stats.Results{}, err
	}
	return s.Run()
}

package sim

// Lockstep differential suite for the two run-loop kernels: the
// cycle-skipping event kernel (KernelEvents, the default) must be
// indistinguishable from the cycle-by-cycle reference (KernelStepped) on
// every observable output — stats.Results, telemetry series, flight
// epochs, lifecycle breakdowns — across the whole configuration space.
// The property tests additionally replay the event kernel's skip claims
// inside a stepped run and verify that every claimed-inert cycle really
// is inert.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// diffPool spans all three workload classes plus dependent pointer
// chases, so random draws cover streaming, bursty, and latency-bound
// memory behavior.
var diffPool = []string{
	"swim", "libquantum", "leslie3d", "mcf", "astar", "gcc",
	"art", "milc", "omnetpp", "xalancbmk", "hmmer", "sjeng",
}

// randomKernelConfig draws one configuration across the policy ×
// prefetcher × filter × refresh × page × APD × runahead × topology ×
// resource-size axes. Instruction targets are kept small: the point is
// breadth, not depth.
func randomKernelConfig(r *rand.Rand) Config {
	cores := []int{1, 2, 4}[r.Intn(3)]
	cfg := Baseline(cores)
	cfg.TargetInsts = 6_000 + uint64(r.Intn(4))*4_000

	type pol struct {
		p     memctrl.Policy
		rules string
	}
	pick := []pol{
		{p: memctrl.DemandPrefEqual},
		{p: memctrl.DemandFirst},
		{p: memctrl.PrefetchFirst},
		{p: memctrl.APS},
		{p: memctrl.APSRank},
		{rules: "rules:critical,rowhit,urgent,fcfs"},
		{rules: "rules:rowhit,demandfirst,fcfs"},
	}[r.Intn(7)]
	cfg.Policy, cfg.Rules = pick.p, pick.rules

	cfg.Prefetcher = []PrefetcherKind{PFNone, PFStream, PFStride, PFCDC, PFMarkov, PFDSPatch}[r.Intn(6)]
	if cfg.Prefetcher != PFNone {
		cfg.Filter = []FilterKind{FilterNone, FilterNone, FilterDDPF, FilterFDP}[r.Intn(4)]
	}
	cfg.MemSide = r.Intn(3) == 0
	cfg.PADC = core.DefaultConfig()
	cfg.PADC.EnableAPD = r.Intn(2) == 0
	cfg.PADC.EnableUrgency = r.Intn(2) == 0

	cfg.DRAM.Refresh.Mode = []refresh.Mode{refresh.Off, refresh.PerBank, refresh.AllBank}[r.Intn(3)]
	if cfg.DRAM.Refresh.Mode != refresh.Off {
		// Shrink the window so short runs cross accrual, postpone and
		// forced-refresh boundaries.
		cfg.DRAM.Refresh.TREFI = 3_000 + uint64(r.Intn(3))*1_000
		cfg.DRAM.Refresh.MaxPostpone = 2 + r.Intn(4)
	}
	cfg.DRAM.Page = []dram.PagePolicy{dram.OpenPage, dram.ClosedPage, dram.AdaptivePage}[r.Intn(3)]
	cfg.DRAM.Channels = 1 + r.Intn(2)
	cfg.DRAM.Permutation = r.Intn(2) == 0

	// A third of the draws run on a multi-domain topology: the far-tier
	// preset, or a hand-built two-domain layout with unequal link
	// latencies under either interleave policy.
	switch r.Intn(3) {
	case 0:
		tp, err := topology.Preset("far-tier", cfg.DRAM.Channels)
		if err != nil {
			panic(err)
		}
		cfg.Topology = &tp
	case 1:
		il := []string{topology.InterleaveChannel, topology.InterleaveDomain}[r.Intn(2)]
		tp := topology.Topology{
			Name:       "dual",
			Interleave: il,
			Domains: []topology.Domain{
				{Name: "near", Channels: cfg.DRAM.Channels, LinkCycles: uint64(r.Intn(32))},
				{Name: "far", Channels: 1 << r.Intn(2), LinkCycles: 64 + uint64(r.Intn(512))},
			},
		}
		cfg.Topology = &tp
	}

	cfg.Core.Runahead = r.Intn(2) == 0
	if r.Intn(3) == 0 {
		cfg.Core.ROB = 64 // small window: more full-ROB stalls, longer skips
	}
	cfg.SharedL2 = r.Intn(4) == 0
	cfg.TrackServiceHist = r.Intn(2) == 0
	cfg.TrackAccuracyTrace = r.Intn(2) == 0
	cfg.Profile = r.Intn(2) == 0

	for i := 0; i < cores; i++ {
		cfg.Workload = append(cfg.Workload, workload.MustByName(diffPool[r.Intn(len(diffPool))]))
	}

	// Two thirds of the draws shrink the MSHR file, so loads park on
	// MSHR-full rejections; half of those also shrink the request
	// buffers to a few slots per core, so loads retry on Enqueue
	// rejections too. Shared resources keep that many entries per core:
	// fewer can starve a core until the safety bound.
	switch r.Intn(3) {
	case 2:
		cfg.BufferSlots = cores * []int{4, 8}[r.Intn(2)]
		fallthrough
	case 1:
		cfg.MSHR = []int{2, 4, 8}[r.Intn(3)]
		if cfg.SharedL2 {
			cfg.MSHR *= cores
		}
	}
	return cfg
}

// runKernel runs cfg under the given kernel, returning the results, the
// error string ("" for success), and the system for post-run inspection.
func runKernel(t *testing.T, cfg Config, k Kernel) (stats.Results, string, *System) {
	t.Helper()
	cfg.Kernel = k
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", k, err)
	}
	res, err := sys.Run()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return res, msg, sys
}

// TestKernelDifferentialRandomized is the headline lockstep differential:
// dozens of seeded configurations across every axis, each run under both
// kernels, requiring exactly equal results and errors. The suite must
// park at least one MSHR-full retry, or it never reached that path.
func TestKernelDifferentialRandomized(t *testing.T) {
	const seeds = 36
	var ran, parks atomic.Uint64
	t.Cleanup(func() {
		if ran.Load() == seeds && parks.Load() == 0 {
			t.Error("no seed parked an MSHR-full retry")
		}
	})
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := randomKernelConfig(rand.New(rand.NewSource(int64(seed))))
			resS, errS, _ := runKernel(t, cfg, KernelStepped)
			resE, errE, sysE := runKernel(t, cfg, KernelEvents)
			if errS != errE {
				t.Fatalf("error mismatch:\n  stepped: %q\n  events:  %q", errS, errE)
			}
			if !reflect.DeepEqual(resS, resE) {
				t.Fatalf("results diverge for %s:\n  stepped: %+v\n  events:  %+v",
					describeCfg(cfg), resS, resE)
			}
			skips, skipped := sysE.SkipStats()
			var p uint64
			for _, cs := range sysE.cores {
				p += cs.core.Parks
			}
			ran.Add(1)
			parks.Add(p)
			t.Logf("%s: %d cycles, %d skips covering %d cycles (%.1f%%), %d parks",
				describeCfg(cfg), resE.Cycles, skips, skipped,
				100*float64(skipped)/float64(resE.Cycles), p)
		})
	}
}

func describeCfg(cfg Config) string {
	pol := cfg.Rules
	if pol == "" {
		pol = fmt.Sprintf("policy%d", int(cfg.Policy))
	}
	names := make([]string, len(cfg.Workload))
	for i, w := range cfg.Workload {
		names[i] = w.Name
	}
	topo := "flat"
	if cfg.Topology != nil {
		topo = cfg.Topology.Name
	}
	return fmt.Sprintf("%s/%v/refresh=%v/page=%v/apd=%v/ra=%v/ch=%d/topo=%s/ms=%v/mshr=%d/buf=%d/%v",
		pol, cfg.Prefetcher, cfg.DRAM.Refresh.Mode, cfg.DRAM.Page,
		cfg.PADC.EnableAPD, cfg.Core.Runahead, cfg.DRAM.Channels, topo, cfg.MemSide,
		cfg.MSHR, cfg.BufferSlots, names)
}

// TestKernelDifferentialTwoDomain pins the lockstep property on the
// topology corner the randomized draws only sample: a two-domain machine
// with sharply unequal link latencies and a timing-override far tier,
// where NextEvent aggregation spans heterogeneous controllers. Both
// kernels must agree on the full Results including the per-domain
// breakdown, and traffic must actually reach both tiers.
func TestKernelDifferentialTwoDomain(t *testing.T) {
	slow := dram.DDR3()
	slow.CL += 17 // odd skew so far-tier events land off the near tier's grid
	tp := topology.Topology{
		Name:       "two-domain",
		Interleave: topology.InterleaveChannel,
		Domains: []topology.Domain{
			{Name: "near", Channels: 2, LinkCycles: 3},
			{Name: "far", Channels: 1, LinkCycles: 389, Timing: &slow},
		},
	}
	cfg := quickCfg(2, "mcf", "art")
	cfg.TargetInsts = 25_000
	cfg.Policy = memctrl.APS
	cfg.PADC.EnableAPD = true
	cfg.DRAM.Channels = 2
	cfg.Topology = &tp

	resS, errS, _ := runKernel(t, cfg, KernelStepped)
	resE, errE, sysE := runKernel(t, cfg, KernelEvents)
	if errS != errE {
		t.Fatalf("error mismatch:\n  stepped: %q\n  events:  %q", errS, errE)
	}
	if !reflect.DeepEqual(resS, resE) {
		t.Fatalf("results diverge on the two-domain topology:\n  stepped: %+v\n  events:  %+v", resS, resE)
	}
	if len(resE.Domains) != 2 {
		t.Fatalf("expected 2 domain breakdowns, got %d", len(resE.Domains))
	}
	for _, d := range resE.Domains {
		if d.Serviced == 0 {
			t.Errorf("domain %q serviced no requests: steering never reached it", d.Name)
		}
	}
	skips, skipped := sysE.SkipStats()
	if skips == 0 || skipped == 0 {
		t.Fatalf("event kernel never skipped on the two-domain machine (skips=%d skipped=%d)", skips, skipped)
	}
	t.Logf("two-domain: %d cycles, near=%d far=%d serviced, %d skips covering %d cycles",
		resE.Cycles, resE.Domains[0].Serviced, resE.Domains[1].Serviced, skips, skipped)
}

// TestKernelDifferentialMemSide pins the lockstep property on the
// memory-side prefetch path: controllers inject their own requests from
// inside Tick, so the event kernel must never skip across a cycle where
// a candidate could enter an idle row-hit window. Both kernels must
// agree on the full Results including the MemSide and DSPatch blocks,
// and the path must actually carry traffic.
func TestKernelDifferentialMemSide(t *testing.T) {
	cfg := quickCfg(2, "swim", "libquantum")
	cfg.TargetInsts = 30_000
	cfg.Policy = memctrl.APS
	cfg.PADC.EnableAPD = true
	cfg.Prefetcher = PFDSPatch
	cfg.MemSide = true

	resS, errS, _ := runKernel(t, cfg, KernelStepped)
	resE, errE, sysE := runKernel(t, cfg, KernelEvents)
	if errS != errE {
		t.Fatalf("error mismatch:\n  stepped: %q\n  events:  %q", errS, errE)
	}
	if !reflect.DeepEqual(resS, resE) {
		t.Fatalf("results diverge with memside on:\n  stepped: %+v\n  events:  %+v", resS, resE)
	}
	ms := resE.MemSide
	if ms == nil {
		t.Fatal("MemSide stats missing with the path enabled")
	}
	if ms.Generated == 0 || ms.Enqueued == 0 {
		t.Fatalf("memory-side path generated no candidates: %+v", ms)
	}
	if ms.Issued == 0 {
		t.Fatalf("no memory-side prefetch ever found an idle row-hit window: %+v", ms)
	}
	if got := ms.Serviced + ms.Dropped; got > ms.Issued {
		t.Fatalf("memside conservation broken: serviced %d + dropped %d > issued %d",
			ms.Serviced, ms.Dropped, ms.Issued)
	}
	if resE.DSPatch == nil {
		t.Fatal("DSPatch stats missing with the dspatch prefetcher")
	}
	skips, skipped := sysE.SkipStats()
	t.Logf("memside: %d cycles, %d skips covering %d cycles; memside %+v; dspatch %+v",
		resE.Cycles, skips, skipped, ms, resE.DSPatch)
}

// TestKernelTelemetryRollups runs both kernels with the full observability
// stack attached — telemetry epochs, the bank-state flight recorder, and
// the request-lifecycle tracer — and requires byte-identical exports.
func TestKernelTelemetryRollups(t *testing.T) {
	base := func() Config {
		cfg := quickCfg(2, "swim", "art")
		cfg.TargetInsts = 40_000
		cfg.DRAM.Refresh.Mode = refresh.PerBank
		cfg.DRAM.Refresh.TREFI = 4_000
		cfg.Profile = true
		return cfg
	}

	type export struct {
		metrics, events, banks, spans, breakdown []byte
	}
	collect := func(k Kernel) export {
		cfg := base()
		cfg.Kernel = k
		cfg.Telemetry = telemetry.New(telemetry.Options{EpochCycles: 5_000})
		cfg.Flight = flight.New(flight.Options{EpochCycles: 5_000})
		cfg.Lifecycle = lifecycle.New(lifecycle.Options{})
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run(%v): %v", k, err)
		}
		var out export
		bufs := []struct {
			dst *[]byte
			fn  func(*bytes.Buffer) error
		}{
			{&out.metrics, func(b *bytes.Buffer) error { return cfg.Telemetry.WriteCSV(b) }},
			{&out.events, func(b *bytes.Buffer) error { return cfg.Telemetry.WriteJSONL(b) }},
			{&out.banks, func(b *bytes.Buffer) error { return cfg.Flight.WriteCSV(b) }},
			{&out.spans, func(b *bytes.Buffer) error { return cfg.Lifecycle.WriteJSONL(b) }},
			{&out.breakdown, func(b *bytes.Buffer) error { return cfg.Lifecycle.WriteCSV(b) }},
		}
		for _, x := range bufs {
			var b bytes.Buffer
			if err := x.fn(&b); err != nil {
				t.Fatal(err)
			}
			*x.dst = b.Bytes()
		}
		return out
	}

	stepped := collect(KernelStepped)
	events := collect(KernelEvents)
	for _, cmp := range []struct {
		name string
		a, b []byte
	}{
		{"telemetry CSV", stepped.metrics, events.metrics},
		{"telemetry JSONL", stepped.events, events.events},
		{"flight CSV", stepped.banks, events.banks},
		{"lifecycle JSONL", stepped.spans, events.spans},
		{"lifecycle CSV", stepped.breakdown, events.breakdown},
	} {
		if !bytes.Equal(cmp.a, cmp.b) {
			t.Errorf("%s differs between kernels (%d vs %d bytes)", cmp.name, len(cmp.a), len(cmp.b))
		}
	}
}

// auditSignature is the progress-counter fingerprint the lockstep audit
// tracks: every counter here advances only when some component acts, so
// it must stay frozen across a claimed-inert window. Stall accounting
// (StallCycles, cycle-class buckets) is deliberately excluded — those are
// exactly the quantities Core.Skip reproduces arithmetically.
func auditSignature(s *System) string {
	var b bytes.Buffer
	for _, cs := range s.cores {
		fmt.Fprintf(&b, "c%d:%d,%d,%d,%d,%d;", cs.id,
			cs.core.Retired, cs.core.Loads, cs.prefSent, cs.prefDropped, cs.l2Miss)
	}
	fmt.Fprintf(&b, "svc:%d,hits:%d;", s.serviced, s.rowHits)
	for i, ctrl := range s.ctrls {
		fmt.Fprintf(&b, "m%d:%d,%d;", i, ctrl.Pending(), ctrl.Occupancy())
		if eng := ctrl.Refresh(); eng != nil {
			fmt.Fprintf(&b, "r%d:%d,%d,%d,%d;", i, eng.Issued, eng.Postponed, eng.PulledIn, eng.Forced)
		}
	}
	return b.String()
}

// coreProgress is the progress a sleeping core must leave untouched:
// Retired, Loads, the fetch index, the ROB occupancy and the deferred
// length.
type coreProgress [5]uint64

func progressOf(cs *coreCtx) coreProgress {
	next, rob, deferred := cs.core.Window()
	return coreProgress{cs.core.Retired, cs.core.Loads, next, uint64(rob), uint64(deferred)}
}

// promiseMem stands between a stepped run's cores and the System and
// checks the two promises behind parked retries. A retry of an MSHR-full
// rejection whose core stamp has not moved answers Retry and leaves the
// stamp where it was. So does one whose stamp moved but which Holds
// would keep parked: the file is still full and the generation of the
// load's line bucket is the one the rejection saw. The stepped kernel
// itself never parks (its rejections carry no stamp), so every such
// retry reaches Load.
type promiseMem struct {
	t           *testing.T
	s           *System
	held        map[[2]uint64][2]uint64 // (core, seq) -> stamp and line generation at its MSHR-full rejection
	checked     uint64                  // retries the stamp would have parked
	lineChecked uint64                  // retries only Holds would have parked
}

func (m *promiseMem) Load(coreID int, seq, line, pc uint64, runahead bool, now uint64, firstTry bool) cpu.LoadResult {
	cs := m.s.cores[coreID]
	key := [2]uint64{uint64(coreID), seq}
	b := lineBucket(gline(coreID, line))
	at, held := m.held[key]
	stamp := cs.stamp
	byStamp := held && !firstTry && at[0] == stamp
	byLine := held && !firstTry && !byStamp && m.s.Holds(coreID, line, at[1])
	delete(m.held, key)
	res := m.s.Load(coreID, seq, line, pc, runahead, now, firstTry)
	if res.Stamp != 0 {
		m.t.Fatalf("cycle %d: the stepped kernel stamped a rejection", now)
	}
	if byStamp || byLine {
		if byStamp {
			m.checked++
		} else {
			m.lineChecked++
		}
		if !res.Retry || cs.stamp != stamp {
			m.t.Fatalf("cycle %d: core %d load %d broke its promise (by stamp %v, by line %v): %+v, stamp %d -> %d",
				now, coreID, seq, byStamp, byLine, res, stamp, cs.stamp)
		}
	}
	if res.Retry && cs.mshr.Full() {
		// An MSHR-full rejection (Enqueue rejects leave the file below
		// capacity).
		m.held[key] = [2]uint64{cs.stamp, cs.gens[b]}
	}
	return res
}

// TestEventWheelLockstepAudit replays the event kernel's decisions inside
// stepped runs. Globally: at each executed cycle where the previous claim
// expires, nextEvent issues a new claim; every stepped cycle strictly
// inside the claimed window must (a) leave the progress signature
// untouched and (b) never see a component event earlier than the claim —
// i.e. the event kernel cannot skip past anything. Per core: the stepped
// kernel keeps taking each core's wake-up claim without acting on it, and
// every cycle the event kernel would have left a core asleep must leave
// that core's progress untouched. Meanwhile promiseMem checks every
// retry a stamp or Holds would have parked. A suite that audits no
// window or checks no promise of either kind, or a seed with global
// windows but no per-core ones, fails.
func TestEventWheelLockstepAudit(t *testing.T) {
	const seeds = 8
	var ran, totalWindows, totalPromises, totalLinePromises atomic.Uint64
	t.Cleanup(func() {
		if ran.Load() < seeds {
			return
		}
		if totalWindows.Load() == 0 {
			t.Error("the audit audited no claimed window on any seed")
		}
		if totalPromises.Load() == 0 {
			t.Error("no seed retried an MSHR-full rejection under an unmoved stamp")
		}
		if totalLinePromises.Load() == 0 {
			t.Error("no seed retried an MSHR-full rejection that only Holds would have parked")
		}
	})
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := randomKernelConfig(rand.New(rand.NewSource(int64(100 + seed))))
			cfg.TargetInsts = 5_000
			cfg.Kernel = KernelStepped
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pm := &promiseMem{t: t, s: sys, held: map[[2]uint64][2]uint64{}}
			for _, cs := range sys.cores {
				cs.core = cpu.New(cs.id, cfg.Core, cs.prof.Gen, pm)
				if cfg.Profile {
					cs.core.EnableAccounting()
				}
			}

			type coreClaim struct {
				until    uint64
				progress coreProgress
				ra       bool
			}
			var (
				claimAt, claimUntil uint64
				claimSig            string
				windows, audited    uint64
				coreWindows         uint64
				coreAudited         uint64
				claims              = make([]coreClaim, len(sys.cores))
			)
			sys.onCycle = func(now uint64) {
				for i, cs := range sys.cores {
					cl := &claims[i]
					if cs.wake <= now {
						t.Fatalf("cycle %d: core %d claim %d not in the future", now, i, cs.wake)
					}
					// A delivery that ends runahead resets the window: the
					// claim it voids was taken before it.
					if now < cl.until && !(cl.ra && !cs.core.InRunahead()) {
						// The event kernel left this core asleep at now.
						coreAudited++
						if got := progressOf(cs); got != cl.progress {
							t.Fatalf("core %d: asleep cycle %d (claim until %d) made progress: %v -> %v",
								i, now, cl.until, cl.progress, got)
						}
						cl.until = min(cl.until, cs.wake)
						continue
					}
					*cl = coreClaim{until: cs.wake, progress: progressOf(cs), ra: cs.core.InRunahead()}
					if cl.until > now+1 {
						coreWindows++
					}
				}

				if now >= claimUntil {
					claimAt, claimUntil = now, sys.nextEvent(now)
					if claimUntil <= now {
						t.Fatalf("cycle %d: claim %d not in the future", now, claimUntil)
					}
					if claimUntil > now+1 {
						windows++
						claimSig = auditSignature(sys)
					}
					return
				}
				// now is strictly inside (claimAt, claimUntil): the event
				// kernel would have skipped this cycle.
				audited++
				if got := auditSignature(sys); got != claimSig {
					t.Fatalf("claimed-inert cycle %d (window %d..%d) changed state:\n  before: %s\n  after:  %s",
						now, claimAt, claimUntil, claimSig, got)
				}
				if re := sys.nextEvent(now); re < claimUntil {
					t.Fatalf("cycle %d inside window %d..%d reports earlier event %d: kernel would skip past it",
						now, claimAt, claimUntil, re)
				}
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			// Some draws (notably runahead, which fetches every cycle while
			// a miss is outstanding) legitimately never open a window; the
			// suite as a whole must, and so must each seed's cores once the
			// machine as a whole sleeps.
			if windows > 0 && coreWindows == 0 {
				t.Fatalf("%d global windows but no per-core window", windows)
			}
			ran.Add(1)
			totalWindows.Add(windows + coreWindows)
			totalPromises.Add(pm.checked)
			totalLinePromises.Add(pm.lineChecked)
			t.Logf("%s: %d windows, %d audited inert cycles; per core %d windows, %d audited asleep cycles; %d stamp and %d line promises checked",
				describeCfg(cfg), windows, audited, coreWindows, coreAudited, pm.checked, pm.lineChecked)
		})
	}
}

// TestEventKernelInvariants checks the event kernel's own bookkeeping:
// executed cycles strictly increase, every jump lands exactly on the
// claim made at the previous executed cycle, executed + skipped cycles
// sum to the reported total, and with the profiler on, every core's
// cycle-class buckets still sum to its frozen cycle count.
func TestEventKernelInvariants(t *testing.T) {
	cfg := quickCfg(2, "mcf", "art")
	cfg.TargetInsts = 30_000
	cfg.Profile = true
	cfg.Kernel = KernelEvents
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		executed  uint64
		lastCycle uint64
		lastClaim uint64
	)
	sys.onCycle = func(now uint64) {
		if now <= lastCycle {
			t.Fatalf("executed cycle %d not after %d", now, lastCycle)
		}
		if lastClaim != 0 && now != lastClaim {
			t.Fatalf("executed cycle %d, but the claim at %d was %d", now, lastCycle, lastClaim)
		}
		lastCycle = now
		lastClaim = sys.nextEvent(now)
		if lastClaim <= now {
			t.Fatalf("cycle %d: claim %d not in the future", now, lastClaim)
		}
		executed++
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	skips, skipped := sys.SkipStats()
	if executed+skipped != res.Cycles {
		t.Fatalf("executed %d + skipped %d != total cycles %d", executed, skipped, res.Cycles)
	}
	if skips == 0 || skipped == 0 {
		t.Fatalf("event kernel never skipped on a stall-heavy workload (skips=%d skipped=%d)", skips, skipped)
	}
	for i, cr := range res.PerCore {
		var sum uint64
		for _, v := range cr.Attribution {
			sum += v
		}
		if sum != cr.Cycles {
			t.Fatalf("core %d: attribution sums to %d, frozen at cycle %d", i, sum, cr.Cycles)
		}
	}
	t.Logf("executed %d of %d cycles (%d skips covering %d)", executed, res.Cycles, skips, skipped)
}

// TestSleepStatsCoverEveryCycle pins per-core wake bookkeeping: each core
// ticks or sleeps through every cycle of the run, so per core the two sum
// to Results.Cycles. The stepped kernel ticks every core every cycle; the
// event kernel lets cores sleep on the paper's 4-core PADC mix.
func TestSleepStatsCoverEveryCycle(t *testing.T) {
	cfg := quickCfg(4, "swim", "art", "libquantum", "milc")
	cfg.TargetInsts = 20_000
	cfg.Policy = memctrl.APS
	cfg.Profile = true
	for _, k := range []Kernel{KernelStepped, KernelEvents} {
		res, errS, sys := runKernel(t, cfg, k)
		if errS != "" {
			t.Fatalf("%v: %s", k, errS)
		}
		for _, cs := range sys.cores {
			if cs.ticks+cs.slept != res.Cycles {
				t.Errorf("%v: core %d ticked %d + slept %d != %d cycles", k, cs.id, cs.ticks, cs.slept, res.Cycles)
			}
		}
		ticks, slept := sys.SleepStats()
		switch {
		case k == KernelStepped && slept != 0:
			t.Errorf("stepped kernel slept %d core cycles", slept)
		case k == KernelEvents && slept == 0:
			t.Error("no core slept under the event kernel")
		}
		t.Logf("%v: %d cycles, %d core ticks, %d core cycles slept (%.1f%%)",
			k, res.Cycles, ticks, slept, 100*float64(slept)/float64(ticks+slept))
	}
}

// TestKernelConfigSurface pins Validate's kernel range: the two loops
// run, any other value is rejected.
func TestKernelConfigSurface(t *testing.T) {
	cfg := quickCfg(1, "swim")
	for _, k := range []Kernel{KernelEvents, KernelStepped} {
		cfg.Kernel = k
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate rejected kernel %v: %v", k, err)
		}
	}
	for _, k := range []Kernel{-1, 7} {
		cfg.Kernel = k
		if err := cfg.Validate(); err == nil {
			t.Fatalf("Validate accepted out-of-range kernel %d", int(k))
		}
	}
}

package main

import (
	"fmt"
	"time"

	"padc/internal/cache"
	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/prefetch"
	"padc/internal/sim"
)

// probeInsts is how many of the workload's own generated instructions the
// layer probes replay (at scale 1), split evenly over the machine's cores.
const probeInsts = 200_000

// probeReps is how many times each probe (and each direct simulation of
// a campaign job) repeats; the reported value is the median repetition.
const probeReps = 5

// sink keeps the probes' results live so the compiler cannot drop calls.
var sink uint64

// memOp is one memory instruction of the probe stream and what the cache
// probe found for it.
type memOp struct {
	core     int
	line, pc uint64
	l2       bool // missed the L1 (or there is none): the L2 saw it
	miss     bool // missed the L2
}

// runProbes times each layer's public API on its own, fed with the
// workload's instruction stream, after the timed ops. The calls are the
// ones the simulator makes; the probes isolate them from the rest of the
// run loop so a change to one layer shows in that layer's number.
func runProbes(res *result, w *workloadDef, o options, cfg sim.Config) error {
	res.set("runner.expand_ms", repeat(func() float64 {
		t := time.Now()
		if _, err := w.spec(o.seed, o.scale).Expand(); err != nil {
			panic(err) // the same spec expanded during setup
		}
		return ms(time.Since(t))
	})...)

	ncores := len(cfg.Workload)
	per := int(scaled(probeInsts, o.scale)) / ncores
	var ops []memOp
	for c, p := range cfg.Workload {
		for i := 0; i < per; i++ {
			if in := p.Gen.At(uint64(i)); in.Mem {
				// Disjoint per-core address spaces, as in the simulator.
				ops = append(ops, memOp{core: c, line: uint64(c)<<44 | in.Line, pc: in.PC})
			}
		}
	}

	res.set("trace.at_ns", repeat(func() float64 {
		t := time.Now()
		for _, p := range cfg.Workload {
			for i := 0; i < per; i++ {
				sink += p.Gen.At(uint64(i)).Line
			}
		}
		return perCall(time.Since(t), per*ncores)
	})...)

	res.set("cache.access_ns", repeat(func() float64 {
		l1s := make([]*cache.Cache, ncores)
		l2s := make([]*cache.Cache, ncores)
		for c := range l2s {
			if cfg.L1.Bytes > 0 {
				l1s[c] = cache.New(cfg.L1)
			}
			l2s[c] = cache.New(cfg.L2)
		}
		t := time.Now()
		for i := range ops {
			m := &ops[i]
			l1, l2 := l1s[m.core], l2s[m.core]
			m.l2 = l1 == nil || !l1.Access(m.line).Hit
			m.miss = false
			if !m.l2 {
				continue
			}
			if !l2.Access(m.line).Hit {
				m.miss = true
				l2.Fill(m.line, false, false)
			}
			if l1 != nil {
				l1.Fill(m.line, false, false)
			}
		}
		return perCall(time.Since(t), len(ops))
	})...)

	var misses []memOp
	for _, m := range ops {
		if m.miss {
			misses = append(misses, m)
		}
	}

	res.set("cache.mshr_ns", repeat(func() float64 {
		// Each core's MSHR holds its newest misses; the oldest is released
		// when it fills, as a completing request would release it.
		mshrs := make([]*cache.MSHR, ncores)
		ring := make([][]uint64, ncores)
		head := make([]int, ncores)
		for c := range mshrs {
			mshrs[c] = cache.NewMSHR(cfg.MSHR)
			ring[c] = make([]uint64, cfg.MSHR)
		}
		t := time.Now()
		for _, m := range misses {
			q := mshrs[m.core]
			if q.Lookup(m.line) != nil {
				continue
			}
			slot := &ring[m.core][head[m.core]%cfg.MSHR]
			if q.Full() {
				q.Release(*slot)
			}
			q.Allocate(m.line, false)
			*slot = m.line
			head[m.core]++
		}
		return perCall(time.Since(t), len(misses))
	})...)

	res.set("prefetch.observe_ns", repeat(func() float64 {
		pfs := make([]prefetch.Prefetcher, ncores)
		for c := range pfs {
			pfs[c] = newPrefetcher(cfg.Prefetcher)
		}
		n := 0
		t := time.Now()
		for i, m := range ops {
			if m.l2 {
				ev := prefetch.AccessEvent{LineAddr: m.line, PC: m.pc, Miss: m.miss, Cycle: uint64(i)}
				sink += uint64(len(pfs[m.core].Observe(ev, cfg.MSHR)))
				n++
			}
		}
		return perCall(time.Since(t), n)
	})...)

	tick, err := controllerProbe(cfg, misses)
	if err != nil {
		return err
	}
	res.set("memctrl.tick_ns", tick...)

	res.set("cpu.tick_ns", repeat(func() float64 {
		var el time.Duration
		ticks := 0
		for c, p := range cfg.Workload {
			core := cpu.New(c, cfg.Core, p.Gen, hitMemory{cfg.L2.HitCycles})
			t := time.Now()
			// The cycle cap only guards against a core that stops retiring.
			for now := uint64(1); core.Retired < uint64(per) && now < uint64(1000*per); now++ {
				core.Tick(now)
				sink += core.NextEvent(now)
				ticks++
			}
			el += time.Since(t)
		}
		return perCall(el, ticks)
	})...)
	return nil
}

// controllerProbe drives one memory controller, running the workload's
// rule stack (and refresh engine, when configured), with the probe's L2
// misses: one arrival per DRAM tick, retried while the buffer is full,
// until every request has been serviced. It reports time per Tick.
func controllerProbe(cfg sim.Config, misses []memOp) ([]float64, error) {
	stack, err := memctrl.ResolveStack(cfg.Policy, cfg.Rules)
	if err != nil {
		return nil, err
	}
	dc := cfg.DRAM
	dc.Channels = 1 // one controller takes every miss
	every := dc.EffectiveTickEvery()
	ncores := len(cfg.Workload)
	limit := 1000*len(misses) + 1_000_000
	var stuck bool
	samples := repeat(func() float64 {
		ctrl := memctrl.NewStack(stack, dram.NewChannel(dc), cfg.BufferSlots, core.New(ncores, cfg.PADC))
		if dc.Refresh.Enabled() {
			eng := refresh.NewEngine(dc.Refresh, dc.Banks)
			eng.CapDelta(every)
			ctrl.AttachRefresh(eng)
		}
		now, next, ticks := uint64(0), 0, 0
		t := time.Now()
		for next < len(misses) || ctrl.Occupancy() > 0 {
			now += every
			if next < len(misses) {
				m := misses[next]
				if ctrl.Enqueue(&memctrl.Request{Core: m.core, Line: m.line, Addr: dc.Map(m.line), Arrival: now}) {
					next++
				}
			}
			sink += uint64(len(ctrl.Tick(now, ncores)))
			if ticks++; ticks > limit {
				stuck = true
				break
			}
		}
		return perCall(time.Since(t), ticks)
	})
	if stuck {
		return nil, fmt.Errorf("controller probe still busy after %d ticks", limit)
	}
	return samples, nil
}

// hitMemory answers every load at the L2 hit latency, isolating the core
// model from the memory system.
type hitMemory struct{ latency uint64 }

func (m hitMemory) Load(_ int, _, _, _ uint64, _ bool, now uint64, _ bool) cpu.LoadResult {
	return cpu.LoadResult{ReadyAt: now + m.latency}
}

// newPrefetcher builds the engine a core of the machine runs, with the
// simulator's default tuning.
func newPrefetcher(kind sim.PrefetcherKind) prefetch.Prefetcher {
	switch kind {
	case sim.PFStream:
		return prefetch.NewStream(prefetch.StreamConfig{})
	case sim.PFStride:
		return prefetch.NewStride(prefetch.StrideConfig{})
	case sim.PFCDC:
		return prefetch.NewCDC(prefetch.CDCConfig{})
	case sim.PFMarkov:
		return prefetch.NewMarkov(prefetch.MarkovConfig{})
	case sim.PFDSPatch:
		return prefetch.NewDSPatch(prefetch.DSPatchConfig{})
	default:
		return prefetch.Nop{}
	}
}

// repeat runs a probe probeReps times and returns each run's value.
func repeat(probe func() float64) []float64 {
	out := make([]float64, probeReps)
	for i := range out {
		out[i] = probe()
	}
	return out
}

func perCall(d time.Duration, calls int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(calls))
}

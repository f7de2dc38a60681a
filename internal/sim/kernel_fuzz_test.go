package sim

import (
	"reflect"
	"testing"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/topology"
	"padc/internal/workload"
)

// FuzzKernelDifferential drives both run-loop kernels from fuzzed
// configuration bytes and fails on any stats divergence. It is the
// adversarial arm of the lockstep suite: the randomized test samples the
// axes uniformly, the fuzzer hunts the corners.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(2_000), false, false)
	f.Add(uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint16(5_000), true, false)
	f.Add(uint8(5), uint8(4), uint8(2), uint8(2), uint8(3), uint8(2), uint16(8_000), true, true)
	f.Add(uint8(1), uint8(2), uint8(0), uint8(2), uint8(7), uint8(131), uint16(3_000), false, true)
	f.Add(uint8(3), uint8(1), uint8(1), uint8(0x08), uint8(0x42), uint8(0), uint16(6_000), true, false)

	pool := []string{"swim", "mcf", "art", "milc", "hmmer", "omnetpp", "libquantum", "sjeng"}

	f.Fuzz(func(t *testing.T, polSel, pfSel, refSel, pageSel, wlSel, topoSel uint8, insts uint16, apd, runahead bool) {
		cores := 1 + int(wlSel>>6)%2 // 1 or 2 cores
		cfg := Baseline(cores)
		cfg.TargetInsts = 1_000 + uint64(insts)%8_000
		cfg.Policy = []memctrl.Policy{
			memctrl.DemandPrefEqual, memctrl.DemandFirst, memctrl.PrefetchFirst,
			memctrl.APS, memctrl.APSRank,
		}[int(polSel)%5]
		cfg.Prefetcher = []PrefetcherKind{PFNone, PFStream, PFStride, PFCDC, PFMarkov, PFDSPatch}[int(pfSel)%6]
		cfg.MemSide = pfSel&0x40 != 0
		cfg.PADC.EnableAPD = apd
		cfg.Core.Runahead = runahead
		cfg.DRAM.Refresh.Mode = []refresh.Mode{refresh.Off, refresh.PerBank, refresh.AllBank}[int(refSel)%3]
		if cfg.DRAM.Refresh.Mode != refresh.Off {
			cfg.DRAM.Refresh.TREFI = 3_000
			cfg.DRAM.Refresh.MaxPostpone = 3
		}
		cfg.DRAM.Page = []dram.PagePolicy{dram.OpenPage, dram.ClosedPage, dram.AdaptivePage}[int(pageSel)%3]
		// pageSel's upper bits shrink the MSHR file (parked MSHR-full
		// retries) and the request buffers (Enqueue-reject retries), by
		// the core count where the resource is shared, as the
		// randomized differential does; polSel's top bit shares the L2.
		cfg.SharedL2 = polSel&0x80 != 0
		switch (pageSel >> 2) % 3 {
		case 2:
			cfg.BufferSlots = cores * []int{4, 8}[pageSel>>7]
			fallthrough
		case 1:
			cfg.MSHR = []int{2, 4, 8}[(pageSel>>4)%3]
			if cfg.SharedL2 {
				cfg.MSHR *= cores
			}
		}
		switch topoSel % 3 {
		case 1:
			tp, err := topology.Preset("far-tier", cfg.DRAM.Channels)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topology = &tp
		case 2:
			// Unequal links, with the high bit picking the interleave and
			// the remaining bits skewing the far link latency.
			il := topology.InterleaveChannel
			if topoSel&0x80 != 0 {
				il = topology.InterleaveDomain
			}
			tp := topology.Topology{
				Name:       "fuzz-dual",
				Interleave: il,
				Domains: []topology.Domain{
					{Name: "a", Channels: cfg.DRAM.Channels, LinkCycles: uint64(topoSel & 0x0f)},
					{Name: "b", Channels: 1, LinkCycles: 32 + uint64(topoSel)*3},
				},
			}
			cfg.Topology = &tp
		}
		for i := 0; i < cores; i++ {
			cfg.Workload = append(cfg.Workload, workload.MustByName(pool[(int(wlSel)+i)%len(pool)]))
		}

		run := func(k Kernel) (any, string) {
			c := cfg
			c.Kernel = k
			res, err := Run(c)
			if err != nil {
				return res, err.Error()
			}
			return res, ""
		}
		resS, errS := run(KernelStepped)
		resE, errE := run(KernelEvents)
		if errS != errE {
			t.Fatalf("error mismatch:\n  stepped: %q\n  events:  %q", errS, errE)
		}
		if !reflect.DeepEqual(resS, resE) {
			t.Fatalf("kernel divergence:\n  config:  %s\n  stepped: %+v\n  events:  %+v",
				describeCfg(cfg), resS, resE)
		}
	})
}

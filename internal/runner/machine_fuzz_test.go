package runner

import (
	"testing"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/sim"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// FuzzMachine draws every sim.Machine field from a bounded set — valid
// names, "", and one bogus name for each kind; sizes including zero and
// non-powers of two — plus the run loop (either kernel or an out-of-range
// one) on the lowered config, and requires the machine to be rejected by
// Config, rejected by sim.Run, or to run with profiling and lifecycle
// tracing on and pass VerifyResults. It must never panic.
func FuzzMachine(f *testing.F) {
	// Seeds: the paper's 2-core PADC; every optional feature on the
	// stepped kernel; 8 cores over 4 channels; bogus names with no cores;
	// a non-power-of-two row buffer. The L2 size must give a power-of-two
	// set count, so that seed's L2 is 512 KB: a 100 KB L2 (200 sets) is
	// rejected before the row buffer is ever simulated.
	f.Add(uint8(2), uint8(1), uint8(8), uint8(6), uint8(4), uint8(6), uint8(5), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0x10), uint8(1))
	f.Add(uint8(4), uint8(2), uint8(16), uint8(4), uint8(5), uint8(7), uint8(2), uint8(2), uint8(1), uint8(2), uint8(3), uint8(1), uint8(0x39), uint8(0x1f))
	f.Add(uint8(8), uint8(4), uint8(4), uint8(2), uint8(4), uint8(3), uint8(3), uint8(3), uint8(2), uint8(3), uint8(2), uint8(0), uint8(200), uint8(0x0a))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(9), uint8(7), uint8(4), uint8(3), uint8(4), uint8(4), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(8), uint8(3), uint8(4), uint8(6), uint8(5), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))

	// Every name table, plus "" and a name no table holds.
	withEdges := func(names []string) []string { return append(append([]string{""}, names...), "bogus") }
	var filters []string
	for k := sim.FilterNone; k <= sim.FilterFDP; k++ {
		filters = append(filters, k.String())
	}
	policies := withEdges(sim.PolicyNames())
	prefetchers := withEdges(sim.PrefetcherNames())
	filters = withEdges(filters)
	topologies := withEdges(topology.Names())
	refreshModes := withEdges(refresh.ModeNames())
	pages := withEdges(dram.PagePolicyNames())
	kernels := []sim.Kernel{sim.KernelEvents, sim.KernelStepped, sim.KernelStepped + 1}
	rowKBs := []uint64{0, 1, 2, 3, 8, 100, 4}
	l2KBs := []uint64{0, 3, 64, 100, 512, 1024}
	benches := workload.Names()
	pick := func(names []string, sel uint8) string { return names[int(sel)%len(names)] }

	f.Fuzz(func(t *testing.T, cores, channels, banks, rowKB, l2KB, pol, pf, filter, topo, ref, page, kernel, mix, flags uint8) {
		m := sim.Machine{
			Cores:       int(cores) % 9,
			Policy:      pick(policies, pol),
			Prefetcher:  pick(prefetchers, pf),
			Filter:      pick(filters, filter),
			Urgency:     flags&1 != 0,
			MemSide:     flags&2 != 0,
			Channels:    int(channels) % 5,
			Banks:       int(banks) % 17,
			RowBufferKB: rowKBs[int(rowKB)%len(rowKBs)],
			Topology:    pick(topologies, topo),
			L2KB:        l2KBs[int(l2KB)%len(l2KBs)],
			SharedL2:    flags&4 != 0,
			Permutation: flags&8 != 0,
			Runahead:    flags&16 != 0,
			RefreshMode: pick(refreshModes, ref),
			PagePolicy:  pick(pages, page),
			TargetInsts: 2_000,
			Profile:     true,
			Lifecycle:   lifecycle.New(lifecycle.Options{}),
		}
		cfg, err := m.Config()
		if err != nil {
			return
		}
		cfg.Kernel = kernels[int(kernel)%len(kernels)]
		for i := 0; i < 1+int(mix>>4)%m.Cores; i++ {
			cfg.Workload = append(cfg.Workload, workload.MustByName(benches[(int(mix)+7*i)%len(benches)]))
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return
		}
		if errs := VerifyResults(res, m.Lifecycle.Spans()); len(errs) > 0 {
			t.Fatalf("%+v on kernel %d: %v", m, cfg.Kernel, errs[0])
		}
	})
}

// Refresh demonstrates the DRAM maintenance subsystem: a cycle-level
// refresh engine (internal/dram/refresh) that accrues one obligation per
// tREFI and pays each with a tRFC-long bank occupancy, under the JEDEC
// postpone/pull-in credit window (up to 8 refreshes either way, with a
// forced-refresh deadline when the credits run out). The paper's
// evaluation idealizes refresh away; turning it on here shows the tax it
// puts on every scheduling policy, and how the per-bank adaptive page
// predictor interacts with the refresh-induced precharges.
//
// The walkthrough runs the same two-core mix under refresh off, per-bank
// (DDR4 REFpb-style: one bank at a time, tRFCpb each) and all-bank (DDR3
// REF: the rank drains and every bank blocks for tRFC), then repeats the
// per-bank run with the adaptive page policy. The same knobs exist
// everywhere in the stack:
//
//	padcsim -bench swim,art -refresh per-bank -page adaptive
//	padcsim -exp abl-refresh
//	sweep specs: {"refresh": ["off", "per-bank"], "page_policies": ["open", "adaptive"]}
package main

import (
	"fmt"
	"log"

	"padc"
)

func main() {
	mix := []string{"swim", "art"}

	// 100K instructions per core is a few hundred thousand cycles — more
	// than 8 tREFI windows, so even the all-bank mode (which postpones
	// while demand traffic is waiting) hits its forced-refresh deadline.
	run := func(label, refreshMode, page string) padc.Result {
		cfg := padc.DefaultSystem(len(mix))
		cfg.TargetInsts = 100_000
		cfg.RefreshMode = refreshMode
		cfg.PagePolicy = page
		res, err := padc.Run(cfg, mix)
		if err != nil {
			log.Fatal(err)
		}
		rf := res.Refresh
		fmt.Printf("%-22s cycles=%-8d issued=%-4d postponed=%-3d pulled-in=%-3d forced=%-3d blocked-cycles=%d\n",
			label, res.Cycles, rf.Issued, rf.Postponed, rf.PulledIn, rf.Forced, rf.BlockedCycles)
		return res
	}

	off := run("off", "off", "open")
	perBank := run("per-bank", "per-bank", "open")
	allBank := run("all-bank", "all-bank", "open")
	adaptive := run("per-bank + adaptive", "per-bank", "adaptive")

	fmt.Println()
	cost := func(r padc.Result) float64 {
		return (float64(r.Cycles)/float64(off.Cycles) - 1) * 100
	}
	fmt.Printf("refresh tax: per-bank %+.2f%% cycles, all-bank %+.2f%%, per-bank+adaptive %+.2f%%\n",
		cost(perBank), cost(allBank), cost(adaptive))
	fmt.Println("\nThe paper-style table over 4-core mixes: `padcsim -exp abl-refresh`.")
}

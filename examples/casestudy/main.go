// Casestudy reproduces the paper's Case Study III (§6.3.3) interactively:
// two prefetch-friendly applications (libquantum, GemsFDTD) share a 4-core
// CMP with two prefetch-unfriendly ones (omnetpp, galgel). It shows how
// PADC drops the unfriendly applications' useless prefetches and protects
// the useful streams.
package main

import (
	"fmt"
	"log"

	"padc"
)

func main() {
	mix := []string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}
	const insts = 250_000

	variants := []struct{ name, policy string }{
		{"demand-first", "demand-first"},
		{"demand-pref-equal", "equal"},
		{"aps-only", "aps"},
		{"PADC", "padc"},
	}

	fmt.Printf("4-core mix: %v (%d instructions per core)\n\n", mix, insts)
	for _, v := range variants {
		cfg := padc.DefaultSystem(4)
		cfg.TargetInsts = insts
		cfg.Policy = v.policy
		res, err := padc.Run(cfg, mix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", v.name)
		for _, c := range res.PerCore {
			fmt.Printf("  %-11s IPC=%.3f  ACC=%5.1f%%  COV=%5.1f%%  dropped=%d\n",
				c.Benchmark, c.IPC(), c.ACC()*100, c.COV()*100, c.PrefDropped)
		}
		fmt.Printf("  bus: demand=%d useful=%d useless=%d (total %d), RBHU=%.1f%%\n\n",
			res.Bus.Demand, res.Bus.UsefulPref, res.Bus.UselessPref, res.Bus.Total(), res.RBHU()*100)
	}
}

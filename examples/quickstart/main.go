// Quickstart: simulate one prefetch-friendly benchmark on the single-core
// baseline under three memory controllers — the rigid demand-first and
// demand-prefetch-equal policies and the paper's PADC — and print the
// metrics that distinguish them.
package main

import (
	"fmt"
	"log"

	"padc"
)

func main() {
	const bench = "libquantum"
	const insts = 400_000

	variants := []struct{ name, policy string }{
		{"no-pref", "no-pref"},
		{"demand-first", "demand-first"},
		{"demand-pref-equal", "equal"},
		{"PADC (APS+APD)", "padc"},
	}

	fmt.Printf("benchmark %s, %d instructions, single-core baseline\n\n", bench, insts)
	fmt.Printf("%-18s %8s %8s %8s %10s %8s\n", "controller", "IPC", "MPKI", "RBH%", "bus lines", "dropped")
	var base float64
	for _, v := range variants {
		cfg := padc.DefaultSystem(1)
		cfg.TargetInsts = insts
		cfg.Policy = v.policy
		res, err := padc.Run(cfg, []string{bench})
		if err != nil {
			log.Fatal(err)
		}
		c := res.PerCore[0]
		fmt.Printf("%-18s %8.3f %8.2f %8.1f %10d %8d\n",
			v.name, c.IPC(), c.MPKI(), res.RBH()*100, res.Bus.Total(), res.Dropped)
		if v.name == "no-pref" {
			base = c.IPC()
		} else if base > 0 {
			fmt.Printf("%-18s %8.2fx vs no prefetching\n", "", c.IPC()/base)
		}
	}
}

// Prefetchers compares the four prefetch engines the paper evaluates —
// stream, PC-based stride, CZone/Delta-Correlation and Markov — on the
// same benchmark under demand-first and under PADC (§6.11 / Figure 28).
package main

import (
	"fmt"
	"log"

	"padc"
)

func main() {
	const bench = "leslie3d"
	const insts = 300_000

	engines := []string{"stream", "stride", "cdc", "markov"}

	fmt.Printf("benchmark %s, single core, %d instructions\n\n", bench, insts)
	fmt.Printf("%-8s %-14s %8s %8s %8s %10s\n", "engine", "controller", "IPC", "ACC%", "COV%", "bus lines")
	for _, e := range engines {
		for _, ctl := range []struct{ name, policy string }{{"demand-first", "demand-first"}, {"PADC", "padc"}} {
			cfg := padc.DefaultSystem(1)
			cfg.TargetInsts = insts
			cfg.Prefetcher, cfg.Policy = e, ctl.policy
			res, err := padc.Run(cfg, []string{bench})
			if err != nil {
				log.Fatal(err)
			}
			c := res.PerCore[0]
			fmt.Printf("%-8s %-14s %8.3f %8.1f %8.1f %10d\n",
				e, ctl.name, c.IPC(), c.ACC()*100, c.COV()*100, res.Bus.Total())
		}
	}
}

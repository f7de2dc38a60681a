// Telemetry demonstrates the cycle-level observability subsystem: it runs
// the paper's 4-core Case Study III mix under the full PADC with an
// instrumented simulator, prints the epoch time series of each core's
// accuracy estimate and the controller's drop rate (the runtime dynamics
// that drive APS promotion and APD dropping), and writes a Chrome
// trace_event file for chrome://tracing / Perfetto.
package main

import (
	"fmt"
	"log"
	"os"

	"padc"
	"padc/internal/exp"
)

func main() {
	mix := []string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}
	const insts = 250_000
	const epoch = 10_000

	cfg := padc.DefaultSystem(4)
	cfg.TargetInsts = insts
	cfg.Policy = "padc"
	tel := padc.NewTelemetry(epoch)
	cfg.Telemetry = tel

	res, err := padc.Run(cfg, mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-core mix %v under PADC: %d cycles, %d dropped prefetches\n\n",
		mix, res.Cycles, res.Dropped)

	// Phase behavior: per-core accuracy estimate and drop rate per epoch.
	series := tel.SeriesData()
	acc := make([][]float64, len(mix))
	for i := range mix {
		acc[i] = series.Column(fmt.Sprintf("core%d/acc_estimate", i))
	}
	drops := series.Column("memctrl0/drops")
	fmt.Printf("%-10s %8s %8s %8s %8s %8s\n",
		"cycle", "acc0", "acc1", "acc2", "acc3", "drops")
	for i, row := range series.Rows {
		// Print every 10th epoch so a quick run stays readable.
		if i%10 != 0 && i != len(series.Rows)-1 {
			continue
		}
		fmt.Printf("%-10d %8.2f %8.2f %8.2f %8.2f %8.0f\n",
			row.Cycle, acc[0][i], acc[1][i], acc[2][i], acc[3][i], drops[i])
	}

	fmt.Println()
	fmt.Print(exp.TelemetryTable(tel))

	out := "padc_trace.json"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nChrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", out)
}

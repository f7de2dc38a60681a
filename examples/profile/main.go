// Profile demonstrates the request-lifecycle tracer and the
// cycle-accounting profiler: it runs a 4-core mix under the full PADC
// with both enabled, prints where every core cycle went (retire,
// demand-miss stall, MSHR-full stall, compute, idle — the buckets
// partition runtime, so each row sums to 100%), decomposes memory latency
// into queue wait versus DRAM service per request class, and writes the
// sampled spans as JSONL for offline analysis.
package main

import (
	"fmt"
	"log"
	"os"

	"padc"
	"padc/internal/exp"
)

func main() {
	mix := []string{"swim", "art", "libquantum", "milc"}

	cfg := padc.DefaultSystem(4)
	cfg.TargetInsts = 250_000
	cfg.Profile = true
	tracer := padc.NewLifecycle()
	cfg.Lifecycle = tracer

	res, err := padc.Run(cfg, mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-core mix %v under PADC: %d cycles\n\n", mix, res.Cycles)

	// Cycle attribution: one row per core, every cycle in exactly one
	// bucket. Memory-bound benchmarks show demand-miss dominating;
	// compute-bound ones show retire.
	fmt.Print(exp.ProfileTable(res))

	// Latency decomposition: queue wait vs. DRAM service per request
	// class, with the row-buffer outcome mix.
	fmt.Print(tracer.BreakdownTable())

	out := "padc_spans.jsonl"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d sampled spans (of %d recorded) to %s\n",
		len(tracer.Spans()), tracer.Recorded(), out)
}

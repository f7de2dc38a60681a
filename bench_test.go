// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, per DESIGN.md's experiment index. Each iteration regenerates
// the experiment at a bounded scale; run the padcsim CLI with -full for
// paper-scale workload counts.
package padc

import (
	"testing"

	"padc/internal/exp"
)

// benchScale keeps a full -bench=. sweep tractable while still exercising
// every experiment end to end.
func benchScale() exp.Scale { return exp.Scale{Insts: 60_000, Mixes2: 2, Mixes4: 2, Mixes8: 2} }

func benchTables(b *testing.B, run func(sc exp.Scale) []*exp.Table) {
	b.Helper()
	var out []*exp.Table
	for i := 0; i < b.N; i++ {
		out = run(benchScale())
	}
	if len(out) == 0 || len(out[0].Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func one(s exp.Sweep) []*exp.Table { return []*exp.Table{s.Run()} }

func BenchmarkFig01RigidPolicies(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig1(sc)) })
}

func BenchmarkFig02Concept(b *testing.B) {
	benchTables(b, func(exp.Scale) []*exp.Table { return []*exp.Table{exp.Fig2()} })
}

func BenchmarkFig04MilcBehavior(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table {
		h, tr := exp.Fig4(sc)
		return []*exp.Table{h, tr}
	})
}

func BenchmarkFig06SingleCoreIPC(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig6(sc, false)) })
}

func BenchmarkFig07SPL(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig7(sc)) })
}

func BenchmarkFig08BusTraffic(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig8(sc)) })
}

func BenchmarkTable05Characteristics(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Table5(sc, false)) })
}

func BenchmarkTable07RBHU(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Table7(sc)) })
}

func BenchmarkFig09TwoCore(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig9(sc)) })
}

func BenchmarkFig10CaseStudyFriendly(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig10(sc)) })
}

func BenchmarkFig12CaseStudyUnfriendly(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig12(sc)) })
}

func BenchmarkFig14CaseStudyMixed(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig14(sc)) })
}

func BenchmarkTable08Urgency(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Table8(sc)) })
}

func BenchmarkTable09Identical(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table {
		return []*exp.Table{exp.Table9("libquantum", sc).Run(), exp.Table9("milc", sc).Run()}
	})
}

func BenchmarkFig16FourCore(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig16(sc)) })
}

func BenchmarkFig17EightCore(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig17(sc)) })
}

func BenchmarkFig19Ranking(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig19(4, sc)) })
}

func BenchmarkFig20RankingEight(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig19(8, sc)) })
}

func BenchmarkFig21DualController(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig21(4, sc)) })
}

func BenchmarkFig22DualControllerEight(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig21(8, sc)) })
}

func BenchmarkFig23RowBufferSweep(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig23(sc)) })
}

func BenchmarkFig24ClosedRow(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig24(sc)) })
}

func BenchmarkFig25CacheSweep(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig25(sc)) })
}

func BenchmarkFig26SharedCache(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig26(4, sc)) })
}

func BenchmarkFig27SharedCacheEight(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig26(8, sc)) })
}

func BenchmarkFig28OtherPrefetchers(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig28(sc)) })
}

func BenchmarkFig29PrefetchFilters(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig29(sc)) })
}

func BenchmarkFig31Permutation(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig31(sc)) })
}

func BenchmarkFig32Runahead(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.Fig32(sc)) })
}

func BenchmarkTable01HardwareCost(b *testing.B) {
	benchTables(b, func(exp.Scale) []*exp.Table { return []*exp.Table{exp.Table1()} })
}

func BenchmarkAblationDropThreshold(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.AblationDropThreshold(sc)) })
}

func BenchmarkAblationPromotionThreshold(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.AblationPromotionThreshold(sc)) })
}

func BenchmarkAblationAddressMapping(b *testing.B) {
	benchTables(b, func(sc exp.Scale) []*exp.Table { return one(exp.AblationAddressMapping(sc)) })
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles per
// second) of the 4-core baseline — the number that matters when scaling
// experiments up. Telemetry is nil here, so this is also the
// disabled-instrumentation path: compare against
// BenchmarkSimulatorThroughputTelemetry for the observability overhead
// (<2% is the budget for the disabled path vs. the pre-telemetry seed).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultSystem(4)
		cfg.TargetInsts = 50_000
		res, err := Run(cfg, []string{"swim", "art", "libquantum", "milc"})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSimulatorThroughputTelemetry is the same run with full
// instrumentation: metric registry, 10K-cycle epoch sampling and the
// event ring all enabled.
func BenchmarkSimulatorThroughputTelemetry(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultSystem(4)
		cfg.TargetInsts = 50_000
		cfg.Telemetry = NewTelemetry(10_000)
		res, err := Run(cfg, []string{"swim", "art", "libquantum", "milc"})
		if err != nil {
			b.Fatal(err)
		}
		if len(cfg.Telemetry.SeriesData().Rows) == 0 {
			b.Fatal("telemetry produced no epoch samples")
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSimulatorThroughputProfiled is the same run with the full
// observability stack: telemetry plus request-lifecycle span tracing and
// cycle-accounting attribution. The delta against the two benchmarks
// above prices the profiler; the delta between the first two prices plain
// telemetry.
func BenchmarkSimulatorThroughputProfiled(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultSystem(4)
		cfg.TargetInsts = 50_000
		cfg.Telemetry = NewTelemetry(10_000)
		cfg.Lifecycle = NewLifecycle(0)
		cfg.Profile = true
		res, err := Run(cfg, []string{"swim", "art", "libquantum", "milc"})
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Lifecycle.Recorded() == 0 {
			b.Fatal("lifecycle recorded no spans")
		}
		for _, c := range res.Cores {
			if len(c.Attribution) == 0 {
				b.Fatal("profiling produced no attribution")
			}
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

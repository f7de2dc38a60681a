package runner

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// testSpec returns a ≥16-job sweep small enough for test latency: 4
// policies × 1 prefetcher × (1 explicit + 3 random) mixes = 16 jobs.
func testSpec() Spec {
	return Spec{
		Name:      "determinism",
		Seed:      7,
		Cores:     2,
		Insts:     8_000,
		Policies:  []string{"demand-first", "equal", "aps", "padc"},
		Workloads: [][]string{{"swim", "art"}},
		Mixes:     3,
	}
}

// artifacts renders the deterministic exports of one run.
func artifacts(t *testing.T, res *SweepResult) (csv, js string) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return cb.String(), jb.String()
}

// TestSweepDeterministicAcrossWorkerCounts is the engine's core contract:
// the same spec produces byte-identical merged CSV and JSON artifacts at
// -jobs=1, -jobs=4 and -jobs=GOMAXPROCS, and — because Verify is on —
// every one of the ≥16 jobs also passes the accounting invariants
// (attribution sums to frozen cycles, prefetch conservation, span
// decomposition) in all three runs.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, spec := range []Spec{testSpec(), aloneSpec()} {
		var wantCSV, wantJSON string
		for _, workers := range workerCounts {
			res, err := Run(spec, Options{Workers: workers, Verify: true})
			if err != nil {
				t.Fatalf("%s: Run(workers=%d): %v", spec.Name, workers, err)
			}
			if len(res.Jobs) < 16 {
				t.Fatalf("%s: sweep expanded to %d jobs, want >= 16", spec.Name, len(res.Jobs))
			}
			for _, j := range res.Jobs {
				if j.Err != "" {
					t.Fatalf("%s: workers=%d: job %s failed: %s", spec.Name, workers, j.Key, j.Err)
				}
				if j.Cycles == 0 || j.Throughput <= 0 {
					t.Fatalf("%s: workers=%d: job %s produced empty metrics: %+v", spec.Name, workers, j.Key, j)
				}
			}
			csv, js := artifacts(t, res)
			if wantCSV == "" {
				wantCSV, wantJSON = csv, js
				continue
			}
			if csv != wantCSV {
				t.Errorf("%s: workers=%d: CSV differs from workers=%d run:\n%s", spec.Name, workers, workerCounts[0], firstDiff(wantCSV, csv))
			}
			if js != wantJSON {
				t.Errorf("%s: workers=%d: JSON differs from workers=%d run:\n%s", spec.Name, workers, workerCounts[0], firstDiff(wantJSON, js))
			}
		}
	}
}

// firstDiff locates the first differing line of two artifacts.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestSweepMergeOrder asserts the merged rows are sorted by job key with
// stable index tiebreaks, independent of completion order.
func TestSweepMergeOrder(t *testing.T) {
	res, err := Run(testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Jobs); i++ {
		prev, cur := res.Jobs[i-1], res.Jobs[i]
		if prev.Key > cur.Key || (prev.Key == cur.Key && prev.Index >= cur.Index) {
			t.Fatalf("rows %d/%d out of order: %q(#%d) before %q(#%d)",
				i-1, i, prev.Key, prev.Index, cur.Key, cur.Index)
		}
	}
}

// TestSweepProgressAndStats checks the progress callback fires once per
// job with a monotonically increasing done count, and that the wall-clock
// stats are populated and excluded from the JSON artifact.
func TestSweepProgressAndStats(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	res, err := Run(testSpec(), Options{
		Workers: 4,
		Progress: func(done, total int, _ JobResult) {
			mu.Lock()
			calls = append(calls, done)
			_ = total
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(res.Jobs) {
		t.Fatalf("progress fired %d times for %d jobs", len(calls), len(res.Jobs))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done counts not monotone: %v", calls)
		}
	}
	st := res.Stats
	if st.Jobs != len(res.Jobs) || st.Workers != 4 || st.Wall <= 0 || st.JobMax < st.JobMin || st.JobMean <= 0 {
		t.Fatalf("implausible run stats: %+v", st)
	}
	_, js := artifacts(t, res)
	for _, forbidden := range []string{"wall", "Wall", "JobMean"} {
		if strings.Contains(js, forbidden) {
			t.Fatalf("JSON artifact leaks wall-clock field %q", forbidden)
		}
	}
}

// TestSweepPanicBecomesFailedRow injects a job that panics (via an
// impossible workload pulled from under the runner) and checks the sweep
// survives with a failed row instead of crashing.
func TestSweepPanicBecomesFailedRow(t *testing.T) {
	jobs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one expanded config so sim.New fails validation — runJob
	// must turn the error into a failed row, and a panicking config (nil
	// pattern) must be recovered.
	j := jobs[0]
	j.Config.Workload = nil // sim: empty workload -> error
	r := runJob(j, false, FlightOptions{})
	if r.Err == "" {
		t.Fatal("invalid config produced no error row")
	}
	j = jobs[1]
	j.Config.Workload[0].Gen.Pattern = nil // nil pattern -> panic in trace.Gen.At
	r = runJob(j, false, FlightOptions{})
	if r.Err == "" || !strings.Contains(r.Err, "panic") {
		t.Fatalf("panicking job not recovered into a failed row: %q", r.Err)
	}
	if r.Key != jobs[1].Key {
		t.Fatalf("failed row lost its key: %q", r.Key)
	}
}

// TestSweepStress hammers a small sweep with many workers repeatedly —
// primarily a race-detector target (the CI runs this package with
// -race -count=2).
func TestSweepStress(t *testing.T) {
	spec := Spec{
		Name:     "stress",
		Seed:     3,
		Cores:    1,
		Insts:    2_000,
		Policies: []string{"demand-first", "padc"},
		Mixes:    4,
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	var want string
	for i := 0; i < rounds; i++ {
		res, err := Run(spec, Options{Workers: 8, Verify: true, Progress: func(int, int, JobResult) {}})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = b.String()
		} else if b.String() != want {
			t.Fatalf("round %d produced different artifact", i)
		}
	}
}

// BenchmarkSweepParallel measures the same 16-job sweep at one worker and
// at GOMAXPROCS, so `go test -bench SweepParallel` demonstrates the
// wall-clock speedup on multi-core runners (the two sub-benchmarks' ns/op
// are directly comparable — identical work, different pool widths).
func BenchmarkSweepParallel(b *testing.B) {
	spec := testSpec()
	spec.Insts = 20_000
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if n := res.Failed(); n > 0 {
					b.Fatalf("%d jobs failed", n)
				}
			}
		})
	}
}

// TestRunContextCancellation covers the graceful-shutdown contract: after
// cancellation RunContext returns context.Canceled plus only the rows
// that actually completed, and finishing the sweep later with those rows
// fed back through the Reuse hook yields artifacts byte-identical to an
// uninterrupted run — with alone baselines too, whose speedups the resumed
// merge fills from reused and fresh rows alike.
func TestRunContextCancellation(t *testing.T) {
	for _, spec := range []Spec{testSpec(), aloneSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			full, err := Run(spec, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			wantCSV, wantJSON := artifacts(t, full)

			ctx, cancel := context.WithCancel(context.Background())
			const stopAfter = 5
			partial, err := RunContext(ctx, spec, Options{
				Workers: 2,
				Progress: func(done, total int, _ JobResult) {
					if done == stopAfter {
						cancel()
					}
				},
			})
			if err != context.Canceled {
				t.Fatalf("cancelled RunContext error = %v, want context.Canceled", err)
			}
			if n := len(partial.Jobs); n < stopAfter || n >= len(full.Jobs) {
				t.Fatalf("cancelled run completed %d of %d jobs, want in [%d, %d)", n, len(full.Jobs), stopAfter, len(full.Jobs))
			}
			for _, j := range partial.Jobs {
				if j.Err != "" {
					t.Fatalf("completed row %s carries error %q", j.Key, j.Err)
				}
				if j.Cycles == 0 {
					t.Fatalf("cancelled run leaked an unexecuted zero row: %+v", j)
				}
			}

			// Resume: journal-style reuse of the completed rows must re-run only
			// the remainder and reproduce the uninterrupted artifacts exactly.
			recovered := make(map[int]JobResult, len(partial.Jobs))
			for _, j := range partial.Jobs {
				recovered[j.Index] = j
			}
			executed := 0
			resumed, err := Run(spec, Options{
				Workers: 3,
				Reuse: func(j Job) (JobResult, bool) {
					r, ok := recovered[j.Index]
					return r, ok
				},
				Start: func(Job) { executed++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(full.Jobs) - len(partial.Jobs); executed != want {
				t.Fatalf("resume executed %d jobs, want %d", executed, want)
			}
			csv, js := artifacts(t, resumed)
			if csv != wantCSV {
				t.Errorf("resumed CSV differs from uninterrupted run:\n%s", firstDiff(wantCSV, csv))
			}
			if js != wantJSON {
				t.Errorf("resumed JSON differs from uninterrupted run:\n%s", firstDiff(wantJSON, js))
			}
		})
	}
}

// TestShardUnionMatchesUnsharded is the shard-determinism contract: for
// uneven splits (shard counts that do not divide the job count) the union
// of every shard's rows, merged with MergeRows, is byte-identical to the
// unsharded artifact — and the shards partition the grid with no overlap.
// On the alone spec some shards hold no baseline rows, so their own merge
// leaves the speedups empty; the union must still fill every one.
func TestShardUnionMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		spec   Spec
		counts []int
	}{
		{testSpec(), []int{2, 3, 5}}, // 16 jobs: 3 and 5 shards are both uneven splits
		{aloneSpec(), []int{3, 11}},  // 22 jobs: shards 0-4 of 11 own no baseline
	} {
		spec := tc.spec
		full, err := Run(spec, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, wantJSON := artifacts(t, full)

		for _, count := range tc.counts {
			var union []JobResult
			seen := map[int]bool{}
			for idx := 0; idx < count; idx++ {
				res, err := Run(spec, Options{Workers: 2, Shard: Shard{Index: idx, Count: count}})
				if err != nil {
					t.Fatalf("%s: shard %d/%d: %v", spec.Name, idx, count, err)
				}
				baselines := 0
				for _, j := range res.Jobs {
					if seen[j.Index] {
						t.Fatalf("%s: shard %d/%d re-ran job index %d", spec.Name, idx, count, j.Index)
					}
					seen[j.Index] = true
					if j.IsBaseline() {
						baselines++
					}
				}
				if spec.Alone != nil && baselines == 0 {
					for _, j := range res.Jobs {
						if j.Speedup != nil {
							t.Fatalf("%s: shard %d/%d has no baselines but filled %s", spec.Name, idx, count, j.Key)
						}
					}
				}
				union = append(union, res.Jobs...)
			}
			if len(union) != len(full.Jobs) {
				t.Fatalf("%s: %d shards yielded %d rows, want %d", spec.Name, count, len(union), len(full.Jobs))
			}
			csv, js := artifacts(t, MergeRows(spec, union))
			if csv != wantCSV {
				t.Errorf("%s: count=%d: sharded union CSV differs:\n%s", spec.Name, count, firstDiff(wantCSV, csv))
			}
			if js != wantJSON {
				t.Errorf("%s: count=%d: sharded union JSON differs:\n%s", spec.Name, count, firstDiff(wantJSON, js))
			}
		}
	}
}

// TestShardValidate rejects malformed shard coordinates.
func TestShardValidate(t *testing.T) {
	for _, s := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}} {
		if _, err := Run(testSpec(), Options{Shard: s}); err == nil {
			t.Errorf("shard %+v accepted, want error", s)
		}
	}
	if !(Shard{Count: 1}).Owns(3) || (Shard{Index: 0, Count: 2}).Owns(3) {
		t.Error("modulo ownership broken")
	}
}

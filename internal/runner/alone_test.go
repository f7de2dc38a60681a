package runner

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// aloneSpec uses generic axes and alone baselines the way the paper's
// figures do: 2 policies × channels {1, 2} × permutation {off, on} × 2
// mixes = 16 grid jobs, whose baselines reset permutation but keep the
// channel count: 2 baseline machines × 3 benchmarks = 6 more jobs.
func aloneSpec() Spec {
	return Spec{
		Name:      "alone",
		Seed:      5,
		Cores:     2,
		Insts:     8_000,
		Policies:  []string{"demand-first", "padc"},
		Axes:      map[string][]json.RawMessage{"permutation": raws(`false`, `true`), "channels": raws(`1`, `2`)},
		Workloads: [][]string{{"swim", "art"}, {"art", "milc"}},
		Alone:     json.RawMessage(`{"policy":"demand-first","permutation":false}`),
	}
}

func raws(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(v)
	}
	return out
}

// TestGenericAxesAndBaselineKeys pins the expansion of generic axes and
// alone baselines: generic axes cross after the named ones in Machine
// field order with default values left out of keys, the grid jobs keep
// the index, seed and key they have without Alone, and the baselines
// follow them, one per distinct (baseline machine, benchmark).
func TestGenericAxesAndBaselineKeys(t *testing.T) {
	spec := aloneSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain := spec
	plain.Alone = nil
	grid, err := plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 16 || len(jobs) != 22 {
		t.Fatalf("expanded to %d grid and %d total jobs, want 16 and 22", len(grid), len(jobs))
	}
	for i, g := range grid {
		if j := jobs[i]; j.Index != g.Index || j.Seed != g.Seed || j.Key != g.Key {
			t.Errorf("grid job %d moved under Alone: %s/%d vs %s/%d", i, j.Key, j.Seed, g.Key, g.Seed)
		}
	}
	// channels precedes permutation in sim.Machine, so it crosses slower.
	wantGrid := []string{
		"policy=demand-first/pf=stream/mix=swim+art",
		"policy=demand-first/pf=stream/mix=art+milc",
		"policy=demand-first/pf=stream/permutation=true/mix=swim+art",
		"policy=demand-first/pf=stream/permutation=true/mix=art+milc",
		"policy=demand-first/pf=stream/channels=2/mix=swim+art",
	}
	for i, want := range wantGrid {
		if jobs[i].Key != want {
			t.Errorf("job %d key %q, want %q", i, jobs[i].Key, want)
		}
	}
	if c := jobs[4].Config; c.DRAM.Channels != 2 || c.DRAM.Permutation {
		t.Errorf("channels=2 job lowered to %d channels, permutation %v", c.DRAM.Channels, c.DRAM.Permutation)
	}
	if !jobs[2].Config.DRAM.Permutation {
		t.Error("permutation axis did not reach the config")
	}
	wantBase := []string{
		"alone/policy=demand-first/pf=stream/mix=swim",
		"alone/policy=demand-first/pf=stream/mix=art",
		"alone/policy=demand-first/pf=stream/mix=milc",
		"alone/policy=demand-first/pf=stream/channels=2/mix=swim",
		"alone/policy=demand-first/pf=stream/channels=2/mix=art",
		"alone/policy=demand-first/pf=stream/channels=2/mix=milc",
	}
	for i, want := range wantBase {
		j := jobs[16+i]
		if j.Key != want {
			t.Errorf("baseline %d key %q, want %q", i, j.Key, want)
		}
		if len(j.Config.Workload) != 1 || j.Config.Cores != 2 || j.Config.DRAM.Permutation {
			t.Errorf("baseline %s: %d workloads on %d cores, permutation %v",
				j.Key, len(j.Config.Workload), j.Config.Cores, j.Config.DRAM.Permutation)
		}
	}
}

// TestAloneBaselinesRunOnce checks each (baseline machine, benchmark) pair
// runs exactly once per spec, however many grid rows share it, and that
// every grid row's metrics come from those rows.
func TestAloneBaselinesRunOnce(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]int{}
	res, err := Run(aloneSpec(), Options{Workers: 4, Start: func(j Job) {
		mu.Lock()
		ran[j.Key]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	alone := map[string]float64{}
	for key, n := range ran {
		if n != 1 {
			t.Errorf("%s ran %d times", key, n)
		}
	}
	for _, j := range res.Jobs {
		if j.IsBaseline() {
			alone[j.Key] = j.IPC[0]
		}
	}
	if len(alone) != 6 {
		t.Fatalf("%d baseline rows, want 6", len(alone))
	}
	for _, j := range res.Jobs {
		if j.IsBaseline() {
			if j.Speedup != nil {
				t.Errorf("baseline row %s carries speedups", j.Key)
			}
			continue
		}
		if len(j.Speedup) != len(j.Workloads) {
			t.Fatalf("%s: speedups %v", j.Key, j.Speedup)
		}
		machine := strings.Replace(strings.TrimSuffix(j.Key, "/mix="+j.Mix), "/permutation=true", "", 1)
		machine = strings.Replace(machine, "policy=padc", "policy=demand-first", 1)
		var ws float64
		for c, bench := range j.Workloads {
			want := j.IPC[c] / alone[aloneKey(machine, bench)]
			if j.Speedup[c] != want {
				t.Errorf("%s core %d: speedup %v, want %v", j.Key, c, j.Speedup[c], want)
			}
			ws += want
		}
		if j.WS != ws || j.HS <= 0 || j.UF < 1 {
			t.Errorf("%s: WS %v (want %v), HS %v, UF %v", j.Key, j.WS, ws, j.HS, j.UF)
		}
	}
}

// TestSpeedupsSurviveExport merges a grid row whose baseline failed and
// one whose IPC is 0: both must export with their speedup metrics empty
// (UF would be +Inf, which JSON cannot encode), next to a row whose
// baselines ran.
func TestSpeedupsSurviveExport(t *testing.T) {
	spec := Spec{Cores: 2, Insts: 1_000, Policies: []string{"padc"},
		Workloads: [][]string{{"swim", "art"}, {"milc", "swim"}, {"mcf", "swim"}},
		Alone:     json.RawMessage(`{"policy":"demand-first"}`)}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	row := func(j Job, ipc ...float64) JobResult {
		return JobResult{Index: j.Index, Key: j.Key, Seed: j.Seed, Point: j.Point, Cycles: 1, IPC: ipc}
	}
	rows := []JobResult{
		row(jobs[0], 1, 0.5), // swim+art: both baselines ran
		row(jobs[1], 0, 0.5), // milc+swim: milc's IPC is 0
		row(jobs[2], 1, 1),   // mcf+swim: mcf's baseline failed
	}
	for _, j := range jobs[3:] {
		r := row(j, 2)
		if j.Workloads[0] == "mcf" {
			r = JobResult{Index: j.Index, Key: j.Key, Seed: j.Seed, Point: j.Point, Err: "sim: boom"}
		}
		rows = append(rows, r)
	}
	res := MergeRows(spec, rows)
	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, j := range res.Jobs {
		switch j.Mix {
		case "swim+art":
			if j.WS != 0.75 || len(j.Speedup) != 2 {
				t.Errorf("%s: WS %v, speedups %v", j.Key, j.WS, j.Speedup)
			}
		case "milc+swim", "mcf+swim":
			if j.Speedup != nil || j.WS != 0 || j.HS != 0 || j.UF != 0 {
				t.Errorf("%s: metrics not empty: %+v", j.Key, j)
			}
		}
	}
	if n := strings.Count(js.String(), `"ws"`); n != 1 {
		t.Errorf("JSON carries %d ws fields, want 1:\n%s", n, js.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if !strings.HasSuffix(lines[0], ",ws,hs,uf") {
		t.Errorf("CSV header lacks the speedup columns: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if (strings.Contains(l, "milc+swim") || strings.Contains(l, "mcf+swim")) && !strings.HasSuffix(l, ",,,") {
			t.Errorf("CSV row with missing baselines has speedup cells: %s", l)
		}
	}
}

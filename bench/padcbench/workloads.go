package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/sweepd"
	"padc/internal/trace"
	"padc/internal/workload"
)

// A workloadDef is one input set the benchmark runs. Every input derives
// from the seed, so the same seed always gives the same inputs. Each
// machine is declared as a runner.Spec — the vocabulary padcsim and
// sweepd users write — and lowered by runner.Spec.Expand.
type workloadDef struct {
	name string
	why  string
	spec func(seed uint64, scale float64) runner.Spec
	// adjust, when set, applies what a Spec cannot express to the
	// expanded machine.
	adjust func(cfg *sim.Config, seed uint64)
	// campaign marks the workload whose op is a sweepd campaign rather
	// than one simulation.
	campaign bool
	// procs is the child's GOMAXPROCS. The simulator runs on one
	// goroutine; a second P only moves garbage collection to the other
	// CPU, which on a 2-vCPU host doubled the op-to-op spread (8.8% vs
	// 4.4% interquartile range over 16 alternating paper4 ops). The
	// campaign's two workers need two.
	procs int
}

// paper4Mix is the representative 4-core paper mix: two prefetch-friendly
// and two prefetch-unfriendly profiles.
var paper4Mix = []string{"swim", "art", "libquantum", "milc"}

// stress8Mix is workload.Mixes(1, 8, 1), a mix whose memory pressure
// keeps the controllers busy on nearly every cycle.
var stress8Mix = []string{"ammp", "galgel", "swim", "syn-u01", "syn-i04", "omnetpp", "swim", "leslie3d"}

// campaignPolicies are the schedulers every campaign mix runs under.
var campaignPolicies = []string{"demand-first", "aps", "padc"}

// campaignWorkers is the campaign's worker pool, one per CPU its child
// process gets.
const campaignWorkers = 2

var workloads = []workloadDef{
	{
		name:  "paper4",
		why:   "representative 4-core PADC paper run (APS+APD+urgency, stream prefetcher): CPU-model-bound, about 35% of cycles skipped",
		procs: 1,
		spec: func(seed uint64, scale float64) runner.Spec {
			return runner.Spec{Cores: 4, Insts: scaled(500_000, scale), Policies: []string{"padc"},
				Workloads: [][]string{shuffled(paper4Mix, seed)}}
		},
	},
	{
		name:  "chase1",
		why:   "1-core dependent pointer chase, no prefetcher: about 98.5% of cycles skipped, so the event kernel and per-request allocation dominate; prefetch and APS/APD are bypassed",
		procs: 1,
		spec: func(_ uint64, scale float64) runner.Spec {
			// mcf is a placeholder the adjust step replaces: a Spec can only
			// name suite profiles.
			return runner.Spec{Cores: 1, Insts: scaled(4_000_000, scale), Policies: []string{"no-pref"}, Workloads: [][]string{{"mcf"}}}
		},
		adjust: func(cfg *sim.Config, seed uint64) {
			// The shape of BenchmarkSystemRun: a small ROB and a dependent
			// chase over 1M lines, so every load waits a full DRAM round
			// trip behind the previous one.
			cfg.Core.ROB = 64
			cfg.Workload = []workload.Profile{{
				Name:  "chase",
				Class: workload.Unfriendly,
				Gen: trace.Gen{
					Pattern:  trace.RandomPattern{Seed: seed, WSLines: 1 << 20, Dep: true},
					MemEvery: 4,
				},
			}}
		},
	},
	{
		name:  "stress8",
		why:   "8 cores with DSPatch, memory-side prefetch, far-tier topology, per-bank refresh and APS+APD: controller-heavy and almost no cycles skipped",
		procs: 1,
		spec: func(seed uint64, scale float64) runner.Spec {
			return runner.Spec{
				Cores: 8, Insts: scaled(600_000, scale), Policies: []string{"padc"},
				Prefetchers: []string{"dspatch"}, MemSide: []string{"on"}, Refresh: []string{"per-bank"},
				Topologies: []string{"far-tier"}, Workloads: [][]string{shuffled(stress8Mix, seed)},
			}
		},
	},
	{
		name:     "campaign",
		why:      "84-job sweepd campaign over loopback HTTP with Verify and telemetry: setup, worker pool, fsync'd journal, merge/export and HTTP, which no simulation workload touches",
		procs:    campaignWorkers,
		spec:     campaignSpec,
		campaign: true,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks an instruction count for tests; scale 1 is the benchmark.
func scaled(n uint64, scale float64) uint64 {
	return uint64(math.Max(1, math.Round(float64(n)*scale)))
}

// shuffled returns a seeded permutation of names (SplitMix64-driven
// Fisher–Yates). The multi-core workloads let the seed decide which core
// runs which profile, not which profiles run: placement changes every
// address and arbitration order, while the total work, and so the host
// time, stays within a few percent from seed to seed. Reseeding the
// generators instead moved stress8's simulated cycles by ±11%.
func shuffled(names []string, seed uint64) []string {
	out := append([]string(nil), names...)
	for i := len(out) - 1; i > 0; i-- {
		x := uint64(i) + seed + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		j := int((x ^ x>>31) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// campaignSpec pairs every Suite profile twice into 2-core mixes, paired
// by the seed. A fixed multiset of profiles keeps the campaign's total
// work nearly the same from seed to seed, where random draws would let
// the seed, not the code, move the timings.
func campaignSpec(seed uint64, scale float64) runner.Spec {
	var names []string
	for _, p := range workload.Suite() {
		names = append(names, p.Name, p.Name)
	}
	names = shuffled(names, seed)
	mixes := make([][]string, int(math.Max(1, math.Round(float64(len(names)/2)*scale))))
	for i := range mixes {
		mixes[i] = names[2*i : 2*i+2]
	}
	return runner.Spec{
		Name: "padcbench", Seed: seed, Cores: 2, Insts: scaled(100_000, scale),
		Policies: campaignPolicies, Workloads: mixes,
	}
}

// opResult is one closed-loop operation's measurement. The fields after
// the common block are filled only by the kind of op that has the phase.
type opResult struct {
	digest     string  // fingerprint of the op's simulated output
	jobs       int     // simulations the op completed
	kinsts     float64 // simulated kilo-instructions (target × cores × jobs)
	wall       time.Duration
	allocBytes uint64
	mallocs    uint64

	// One simulation (sim workloads, and direct runs of a campaign job).
	res        stats.Results
	skipped    uint64
	newDur     time.Duration // zero when the system was built in setup
	newMallocs uint64
	runDur     time.Duration

	// One campaign, submit to artifact.
	submit, firstRow, drain, fetch, mergeExport time.Duration
	journalBytes                                int64
}

// runnable is a workload set up in this process, ready to run ops.
type runnable interface {
	op() (opResult, error)
	// simRuns returns single simulations of the workload's machine for the
	// per-layer metrics: the timed ops themselves when an op is one
	// simulation, fresh direct runs of the first job otherwise.
	simRuns(timed []opResult) ([]opResult, error)
	// machine is the configuration the layer probes replay.
	machine() sim.Config
	close() error
}

// setupWorkload builds everything the first op needs: the expanded
// machine and, for a simulation, its first system; for the campaign, a
// service on a fresh data directory behind a loopback listener.
func setupWorkload(w *workloadDef, o options) (runnable, error) {
	spec := w.spec(o.seed, o.scale)
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if w.campaign {
		return newCampaign(spec, jobs, o.workdir)
	}
	cfg := jobs[0].Config
	if w.adjust != nil {
		w.adjust(&cfg, o.seed)
	}
	b := &simBench{cfg: cfg}
	if b.next, err = sim.New(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// simBench runs one simulation per op; caches start empty in every op.
type simBench struct {
	cfg  sim.Config
	next *sim.System // built in setup; the first op runs it
}

func (b *simBench) op() (opResult, error) {
	r := opResult{jobs: 1, kinsts: float64(b.cfg.TargetInsts) * float64(len(b.cfg.Workload)) / 1e3}
	sys := b.next
	b.next = nil
	if sys == nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		var err error
		if sys, err = sim.New(b.cfg); err != nil {
			return r, err
		}
		r.newDur = time.Since(t)
		runtime.ReadMemStats(&m1)
		r.newMallocs = m1.Mallocs - m0.Mallocs
	}
	t := time.Now()
	res, err := sys.Run()
	r.runDur = time.Since(t)
	_, r.skipped = sys.SkipStats()
	r.res = res
	if err != nil {
		return r, err
	}
	if err := checkResults(b.cfg, res); err != nil {
		return r, err
	}
	r.digest, err = digestJSON(res)
	return r, err
}

func (b *simBench) simRuns(timed []opResult) ([]opResult, error) { return timed, nil }
func (b *simBench) machine() sim.Config                          { return b.cfg }
func (b *simBench) close() error                                 { return nil }

// checkResults applies the runner's accounting invariants and checks that
// every core reached its instruction target.
func checkResults(cfg sim.Config, res stats.Results) error {
	if errs := runner.VerifyResults(res, nil); len(errs) > 0 {
		return errors.Join(errs...)
	}
	for i, c := range res.PerCore {
		if c.Retired < cfg.TargetInsts {
			return fmt.Errorf("core %d retired %d of %d instructions", i, c.Retired, cfg.TargetInsts)
		}
	}
	return nil
}

func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(data), nil
}

func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// campaignBench submits one campaign per op to an in-process sweepd
// service through its HTTP client, the padcsim -sweep-remote path.
type campaignBench struct {
	spec     runner.Spec
	specJSON []byte
	jobs     []runner.Job
	dir      string
	svc      *sweepd.Service
	srv      *http.Server
	served   chan error
	client   *sweepd.Client
	checked  bool // the first op's rows were checked against direct runs
}

func newCampaign(spec runner.Spec, jobs []runner.Job, workdir string) (b *campaignBench, err error) {
	b = &campaignBench{jobs: jobs}
	// The service parses the submitted bytes; parsing them here too gives
	// the local merge the exact spec the served artifacts embed.
	if b.specJSON, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	if b.spec, err = runner.ParseSpec(b.specJSON); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(workdir, "sweepd-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = b.close()
		}
	}()
	if b.svc, err = sweepd.NewService(sweepd.ServiceOptions{DataDir: b.dir, Workers: campaignWorkers}); err != nil {
		return b, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return b, err
	}
	b.srv = &http.Server{Handler: b.svc.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	if b.client, err = sweepd.NewClient("http://" + ln.Addr().String()); err != nil {
		return b, err
	}
	// The first op is ready once the API answers.
	_, err = b.client.List(context.Background())
	return b, err
}

func (b *campaignBench) close() error {
	var errs []error
	if b.srv != nil {
		errs = append(errs, b.srv.Close())
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if b.svc != nil {
		b.svc.Close()
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// opTimeout bounds one campaign op well inside the benchmark's per-run
// limit, so a hung service fails the op instead of the run.
const opTimeout = 120 * time.Second

func (b *campaignBench) op() (opResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	r := opResult{jobs: len(b.jobs), kinsts: float64(len(b.jobs)) * float64(b.spec.Cores) * float64(b.spec.Insts) / 1e3}

	start := time.Now()
	info, err := b.client.Submit(ctx, sweepd.SubmitRequest{Spec: b.specJSON, Workers: campaignWorkers, Verify: true, Telemetry: true})
	if err != nil {
		return r, err
	}
	r.submit = time.Since(start)

	var rows []runner.JobResult
	var lastRow, end time.Time
	state := ""
	err = b.client.StreamRows(ctx, info.ID, 0, func(ev sweepd.RowEvent) error {
		now := time.Now()
		if ev.Row != nil {
			if rows == nil {
				r.firstRow = now.Sub(start)
			}
			rows = append(rows, *ev.Row)
			lastRow = now
		}
		if ev.Done {
			state, end = ev.State, now
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.drain = end.Sub(lastRow)

	t := time.Now()
	csvData, err := b.client.Artifact(ctx, info.ID, "csv")
	if err != nil {
		return r, err
	}
	jsonData, err := b.client.Artifact(ctx, info.ID, "json")
	if err != nil {
		return r, err
	}
	tel, err := b.client.Telemetry(ctx, info.ID, false)
	if err != nil {
		return r, err
	}
	r.fetch = time.Since(t)

	t = time.Now()
	merged := runner.MergeRows(b.spec, rows)
	var localCSV, localJSON bytes.Buffer
	if err := merged.WriteCSV(&localCSV); err != nil {
		return r, err
	}
	if err := merged.WriteJSON(&localJSON); err != nil {
		return r, err
	}
	r.mergeExport = time.Since(t)

	if r.journalBytes, err = dirBytes(filepath.Join(b.dir, info.ID)); err != nil {
		return r, err
	}
	r.digest = digestBytes(csvData)

	switch {
	case state != "completed":
		return r, fmt.Errorf("campaign %s ended %q", info.ID, state)
	case len(rows) != len(b.jobs):
		return r, fmt.Errorf("campaign %s streamed %d of %d rows", info.ID, len(rows), len(b.jobs))
	case merged.Failed() > 0:
		return r, fmt.Errorf("campaign %s: %d failed rows", info.ID, merged.Failed())
	case !bytes.Equal(localCSV.Bytes(), csvData), !bytes.Equal(localJSON.Bytes(), jsonData):
		return r, fmt.Errorf("campaign %s: served artifacts differ from the merge of its streamed rows", info.ID)
	case bytes.Count(tel, []byte("\n")) != len(b.jobs):
		return r, fmt.Errorf("campaign %s: telemetry holds %d records for %d jobs", info.ID, bytes.Count(tel, []byte("\n")), len(b.jobs))
	}
	if !b.checked {
		b.checked = true
		return r, b.checkFirstJob(merged)
	}
	return r, nil
}

// checkFirstJob reruns the campaign's first job as a direct simulation
// and requires the service's row to match it.
func (b *campaignBench) checkFirstJob(merged *runner.SweepResult) error {
	res, err := sim.Run(b.jobs[0].Config)
	if err != nil {
		return err
	}
	for _, row := range merged.Jobs {
		if row.Index == 0 {
			if row.Cycles != res.Cycles || row.Serviced != res.Serviced {
				return fmt.Errorf("job %s: service row has %d cycles/%d serviced, a direct run %d/%d",
					row.Key, row.Cycles, row.Serviced, res.Cycles, res.Serviced)
			}
			return nil
		}
	}
	return fmt.Errorf("campaign rows lack job 0")
}

// simRuns reruns the first job directly: a campaign op hides its
// simulations inside the service's worker pool.
func (b *campaignBench) simRuns([]opResult) ([]opResult, error) {
	sb := &simBench{cfg: b.jobs[0].Config}
	var out []opResult
	for i := 0; i < probeReps; i++ {
		r, err := sb.op()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (b *campaignBench) machine() sim.Config { return b.jobs[0].Config }

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

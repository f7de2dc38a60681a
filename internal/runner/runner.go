package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
)

// defaultWorkers is the process-wide pool size used when Options.Workers
// is unset; 0 means GOMAXPROCS. The padcsim -jobs flag sets it once at
// startup, but it is atomic so tests can flip it safely.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the pool size Run falls back to when no explicit
// worker count is given; n <= 0 restores GOMAXPROCS.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the current fallback pool size.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Progress observes sweep execution: done jobs so far (including failed),
// the total, and the job that just finished. Called from worker
// goroutines under a lock, so implementations need no synchronization.
type Progress func(done, total int, r JobResult)

// Shard selects a 1-of-Count slice of the expanded grid by the stable
// grid index, so cooperating processes can split one spec without
// coordination: shard s owns exactly the jobs with Index % Count == s.
// The union of all Count shards is the full grid with no overlap, which
// is what makes the merged union byte-identical to an unsharded run.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Enabled reports whether the shard actually restricts the grid
// (Count <= 1 means the whole grid).
func (s Shard) Enabled() bool { return s.Count > 1 }

// Owns reports whether this shard executes the job at the given stable
// grid index.
func (s Shard) Owns(index int) bool {
	return !s.Enabled() || index%s.Count == s.Index
}

// Validate reports malformed shard coordinates.
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("runner: negative shard coordinates %d/%d", s.Index, s.Count)
	}
	if s.Count > 0 && s.Index >= s.Count {
		return fmt.Errorf("runner: shard index %d out of range for %d shards", s.Index, s.Count)
	}
	return nil
}

// String renders "i/n" ("all" when unsharded) for logs and journals.
func (s Shard) String() string {
	if !s.Enabled() {
		return "all"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Options tunes one Run call.
type Options struct {
	// Workers bounds the pool; <= 0 uses DefaultWorkers().
	Workers int
	// Verify runs the invariant checks (profiler attribution identity,
	// prefetch conservation, span-latency decomposition) on every job and
	// records violations in JobResult.Err.
	Verify bool
	// Progress, when non-nil, is called after each job completes.
	Progress Progress
	// Shard restricts execution to the jobs this shard owns (by stable
	// grid index). The merged result then contains only those rows; union
	// the shards' rows with MergeRows to reassemble the full artifact.
	Shard Shard
	// Reuse, when non-nil, is consulted before a job executes. Returning
	// (row, true) records the row without re-running the simulation — the
	// resume hook the sweep service's journal recovery uses. A reused row
	// still counts toward Progress's done total.
	Reuse func(Job) (JobResult, bool)
	// Start, when non-nil, is called (under the same lock as Progress)
	// just before a job actually executes; reused jobs never trigger it.
	// It is the queued→running transition hook for live metrics.
	Start func(Job)
	// Flight, when enabled, attaches a bank-state flight recorder to every
	// executed job and stores its summary on the row (JobResult.Flight).
	Flight FlightOptions
}

// FlightOptions configures the optional per-job flight recorder (see
// internal/telemetry/flight). The summary is a deterministic function of
// the job's configuration, so enabling it never perturbs the metric
// columns and the recorded roll-up is identical across worker counts.
type FlightOptions struct {
	// Enabled turns the recorder on; the zero value keeps jobs untouched.
	Enabled bool
	// EpochCycles overrides the rotation period; 0 uses the flight default.
	EpochCycles uint64
	// MaxEpochs overrides the retained-ring bound; 0 uses the flight default.
	MaxEpochs int
}

// JobResult is one job's merged row. Every field except the unexported
// wall-clock measurement is a deterministic function of the job's
// configuration, so the exported artifacts are byte-identical across
// worker counts.
type JobResult struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	Seed  uint64 `json:"seed"`
	Point

	// Err is non-empty when the job failed (simulator error, invariant
	// violation, or recovered panic); the metric fields are then zero.
	Err string `json:"err,omitempty"`

	Cycles     uint64    `json:"cycles"`
	IPC        []float64 `json:"ipc"` // per core
	Throughput float64   `json:"throughput"`

	// WS, HS and UF are the paper's weighted speedup, harmonic speedup and
	// unfairness (§6), and Speedup is each core's IPC over its benchmark's
	// IPC_alone. The merge fills them on the grid rows of a spec that sets
	// Alone, from the baseline rows present; they stay empty when a
	// baseline is missing or failed, or a speedup is not positive.
	WS      float64   `json:"ws,omitempty"`
	HS      float64   `json:"hs,omitempty"`
	UF      float64   `json:"uf,omitempty"`
	Speedup []float64 `json:"speedup,omitempty"`

	BusDemand  uint64  `json:"bus_demand"`
	BusUseful  uint64  `json:"bus_useful"`
	BusUseless uint64  `json:"bus_useless"`
	Serviced   uint64  `json:"serviced"`
	RowHitRate float64 `json:"row_hit_rate"`
	RBHU       float64 `json:"rbhu"`

	PrefSent    uint64 `json:"pref_sent"`
	PrefUsed    uint64 `json:"pref_used"`
	PrefDropped uint64 `json:"pref_dropped"`

	// Telemetry is the per-job roll-up of headline simulator aggregates
	// beyond the fixed columns (buffer rejects, per-core MPKI/accuracy…),
	// keyed by metric name so new metrics extend the JSON without schema
	// churn.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`

	// Flight is the bank-state flight-recorder roll-up (per-epoch ×
	// per-bank row outcomes, transitions, rule-win attribution), present
	// only when Options.Flight.Enabled — absent, artifacts stay
	// byte-identical to their pre-flight form.
	Flight *flight.Summary `json:"flight,omitempty"`

	wall time.Duration // measured latency; never serialized
}

// IsBaseline reports whether the row is an alone-baseline job.
func (j JobResult) IsBaseline() bool { return strings.HasPrefix(j.Key, alonePrefix) }

// RunStats reports the sweep's wall-clock behavior. It is intentionally
// not part of the deterministic artifacts.
type RunStats struct {
	Workers int
	Jobs    int
	Failed  int
	Wall    time.Duration
	JobMin  time.Duration
	JobMax  time.Duration
	JobMean time.Duration
	// JobTotal sums the per-job latencies. On an unloaded machine with
	// enough cores it approximates serial execution time; when workers
	// outnumber cores the interleaving inflates individual latencies, so
	// read it as an upper bound on the serialized cost.
	JobTotal time.Duration
}

// String renders the one-line wall-clock summary the CLI prints.
func (s RunStats) String() string {
	return fmt.Sprintf("%d jobs (%d failed) on %d workers in %v; job latency min/mean/max %v/%v/%v, summed %v",
		s.Jobs, s.Failed, s.Workers, s.Wall.Round(time.Millisecond),
		s.JobMin.Round(time.Millisecond), s.JobMean.Round(time.Millisecond),
		s.JobMax.Round(time.Millisecond), s.JobTotal.Round(time.Millisecond))
}

// SweepResult is the merged outcome of one sweep.
type SweepResult struct {
	Spec Spec        `json:"spec"`
	Jobs []JobResult `json:"jobs"` // sorted by Key (ties by Index)
	// Stats is execution telemetry, excluded from the deterministic
	// CSV/JSON artifacts.
	Stats RunStats `json:"-"`
}

// Run expands the spec and executes every job on a bounded worker pool.
// A job that panics (or fails an invariant check with Options.Verify) is
// recorded as a failed row rather than killing the sweep. The returned
// jobs are merged in job-key order; the error is non-nil only for spec
// errors, never for individual job failures.
func Run(spec Spec, opts Options) (*SweepResult, error) {
	return RunContext(context.Background(), spec, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the pool
// stops picking up new jobs, in-flight jobs finish, and the call returns
// the merged partial result (only rows that actually completed) together
// with ctx's error. A nil result is returned only for spec or shard
// errors.
func RunContext(ctx context.Context, spec Spec, opts Options) (*SweepResult, error) {
	all, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	jobs := all
	if opts.Shard.Enabled() {
		jobs = make([]Job, 0, len(all)/opts.Shard.Count+1)
		for _, j := range all {
			if opts.Shard.Owns(j.Index) {
				jobs = append(jobs, j)
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]JobResult, len(jobs))
	ran := make([]bool, len(jobs))
	start := time.Now()

	var mu sync.Mutex // guards done counter + Start/Progress callbacks
	done := 0
	runIdx := func(i int) {
		if ctx.Err() != nil {
			return
		}
		var r JobResult
		reused := false
		if opts.Reuse != nil {
			r, reused = opts.Reuse(jobs[i])
		}
		if !reused {
			if opts.Start != nil {
				mu.Lock()
				opts.Start(jobs[i])
				mu.Unlock()
			}
			r = runJob(jobs[i], opts.Verify, opts.Flight)
		}
		results[i] = r
		ran[i] = true
		mu.Lock()
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), r)
		}
		mu.Unlock()
	}

	if workers == 1 {
		for i := range jobs {
			if ctx.Err() != nil {
				break
			}
			runIdx(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runIdx(i)
				}
			}()
		}
	dispatch:
		for i := range jobs {
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}

	rows := results
	if err := ctx.Err(); err != nil {
		rows = rows[:0]
		for i, ok := range ran {
			if ok {
				rows = append(rows, results[i])
			}
		}
	}
	res := &SweepResult{Spec: spec, Jobs: rows}
	res.merge()
	res.Stats = gatherStats(rows, workers, time.Since(start))
	return res, ctx.Err()
}

// MergeRows assembles a merged SweepResult from externally collected rows
// — journal recovery, shard union — applying the same key-sort contract
// as Run, so reassembled artifacts are byte-identical to a single-process
// sweep of the same spec.
func MergeRows(spec Spec, rows []JobResult) *SweepResult {
	res := &SweepResult{Spec: spec, Jobs: append([]JobResult(nil), rows...)}
	res.merge()
	return res
}

// merge orders the job rows by their stable key (ties by index), the
// contract that makes the exported artifacts independent of completion
// order, and joins the grid rows to their alone baselines.
func (r *SweepResult) merge() {
	sort.Slice(r.Jobs, func(i, j int) bool {
		if r.Jobs[i].Key != r.Jobs[j].Key {
			return r.Jobs[i].Key < r.Jobs[j].Key
		}
		return r.Jobs[i].Index < r.Jobs[j].Index
	})
	if r.Spec.Alone != nil {
		r.fillSpeedups()
	}
}

// fillSpeedups recomputes every grid row's speedup metrics from the
// baseline rows present, so any subset of a spec's rows (a shard, a
// journal) merges to the same metrics once the baselines it needs are in.
func (r *SweepResult) fillSpeedups() {
	d := r.Spec.withDefaults()
	machines, err := d.machines()
	if err != nil {
		return
	}
	nmixes := len(d.Workloads) + d.Mixes
	ipcAlone := make(map[string]float64)
	for _, j := range r.Jobs {
		if j.IsBaseline() && j.Err == "" && len(j.IPC) > 0 {
			ipcAlone[j.Key] = j.IPC[0]
		}
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		j.WS, j.HS, j.UF, j.Speedup = 0, 0, 0, nil
		if j.Err != "" || j.Index >= len(machines)*nmixes || len(j.IPC) != len(j.Workloads) {
			continue
		}
		bl := machines[j.Index/nmixes].alone
		alone := make([]float64, len(j.Workloads))
		for c, bench := range j.Workloads {
			alone[c] = ipcAlone[aloneKey(bl.key, bench)]
		}
		ss := stats.IndividualSpeedups(j.IPC, alone)
		if slices.ContainsFunc(ss, func(s float64) bool { return !(s > 0) || math.IsInf(s, 1) }) {
			continue
		}
		j.WS, j.HS, j.UF = stats.WS(j.IPC, alone), stats.HS(j.IPC, alone), stats.UF(j.IPC, alone)
		j.Speedup = ss
	}
}

// Failed returns how many jobs carry an error.
func (r *SweepResult) Failed() int {
	n := 0
	for _, j := range r.Jobs {
		if j.Err != "" {
			n++
		}
	}
	return n
}

func gatherStats(results []JobResult, workers int, wall time.Duration) RunStats {
	st := RunStats{Workers: workers, Jobs: len(results), Wall: wall}
	for _, r := range results {
		if r.Err != "" {
			st.Failed++
		}
		st.JobTotal += r.wall
		if st.JobMin == 0 || r.wall < st.JobMin {
			st.JobMin = r.wall
		}
		if r.wall > st.JobMax {
			st.JobMax = r.wall
		}
	}
	if len(results) > 0 {
		st.JobMean = st.JobTotal / time.Duration(len(results))
	}
	return st
}

// runJob executes one job, converting panics and invariant violations
// into a failed-row result.
func runJob(j Job, verify bool, fo FlightOptions) (out JobResult) {
	out = JobResult{Index: j.Index, Key: j.Key, Seed: j.Seed, Point: j.Point}
	start := time.Now()
	defer func() {
		out.wall = time.Since(start)
		if p := recover(); p != nil {
			out.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
	}()

	cfg := j.Config
	var lc *lifecycle.Tracer
	if verify {
		cfg.Profile = true
		lc = lifecycle.New(lifecycle.Options{})
		cfg.Lifecycle = lc
	}
	var rec *flight.Recorder
	if fo.Enabled {
		rec = flight.New(flight.Options{EpochCycles: fo.EpochCycles, MaxEpochs: fo.MaxEpochs})
		cfg.Flight = rec
	}
	res, err := sim.Run(cfg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if verify {
		if errs := VerifyResults(res, lc.Spans()); len(errs) > 0 {
			out.Err = "invariant violation: " + errs[0].Error()
			return out
		}
	}
	if rec != nil {
		out.Flight = rec.Summary()
	}
	out.fill(res)
	return out
}

// fill lowers a simulation outcome into the row's metric fields.
func (r *JobResult) fill(res stats.Results) {
	r.Cycles = res.Cycles
	r.BusDemand = res.Bus.Demand
	r.BusUseful = res.Bus.UsefulPref
	r.BusUseless = res.Bus.UselessPref
	r.Serviced = res.Serviced
	r.RowHitRate = res.RBH()
	r.RBHU = res.RBHU()
	tel := map[string]float64{
		"buffer_rejects": float64(res.BufferRejects),
		"useful_rowhits": float64(res.UsefulRowHits),
	}
	// Refresh counters appear only when the maintenance engine ran, so
	// refresh-off artifacts stay byte-identical to their pre-refresh form.
	if rf := res.Refresh; rf.Issued > 0 || rf.Postponed > 0 {
		tel["refreshes_issued"] = float64(rf.Issued)
		tel["refreshes_postponed"] = float64(rf.Postponed)
		tel["refreshes_pulled_in"] = float64(rf.PulledIn)
		tel["refreshes_forced"] = float64(rf.Forced)
		tel["refresh_blocked_cycles"] = float64(rf.BlockedCycles)
	}
	for i, c := range res.PerCore {
		ipc := c.IPC()
		r.IPC = append(r.IPC, ipc)
		r.Throughput += ipc
		r.PrefSent += c.PrefSent
		r.PrefUsed += c.PrefUsed
		r.PrefDropped += c.PrefDropped
		pre := fmt.Sprintf("core%d/", i)
		tel[pre+"mpki"] = c.MPKI()
		tel[pre+"spl"] = c.SPL()
		tel[pre+"acc"] = c.ACC()
		tel[pre+"cov"] = c.COV()
	}
	// Memory-side and DSPatch counters appear only when those features ran,
	// so artifacts from sweeps that never enable them stay byte-identical.
	if ms := res.MemSide; ms != nil {
		tel["memside/generated"] = float64(ms.Generated)
		tel["memside/issued"] = float64(ms.Issued)
		tel["memside/serviced"] = float64(ms.Serviced)
		tel["memside/used"] = float64(ms.Used)
		tel["memside/dropped_pressure"] = float64(ms.DroppedPressure)
		tel["memside/dropped_apd"] = float64(ms.Dropped)
		tel["memside/gate_closed"] = float64(ms.GateClosed)
		tel["memside/acc"] = ms.ACC()
	}
	if ds := res.DSPatch; ds != nil {
		tel["dspatch/issued"] = float64(ds.Issued)
		tel["dspatch/covp_triggers"] = float64(ds.CovPSelected)
		tel["dspatch/accp_triggers"] = float64(ds.AccPSelected)
		tel["dspatch/headroom"] = ds.Headroom
	}
	// Per-domain counters appear only on multi-tier topologies, so flat
	// artifacts stay byte-identical to their pre-topology form.
	for _, d := range res.Domains {
		pre := "dom/" + d.Name + "/"
		tel[pre+"serviced"] = float64(d.Serviced)
		tel[pre+"row_hit_rate"] = d.RBH()
		tel[pre+"bus_busy_cycles"] = float64(d.BusBusyCycles)
		tel[pre+"refresh_blocked"] = float64(d.RefreshBlocked)
		tel[pre+"pref_sent"] = float64(d.PrefSent)
		tel[pre+"pref_used"] = float64(d.PrefUsed)
		tel[pre+"acc"] = d.ACC()
	}
	r.Telemetry = tel
}

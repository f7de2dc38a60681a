// Package stats defines the metrics the paper reports (§5.2): per-core
// IPC, weighted speedup (WS), harmonic mean of speedups (HS), unfairness
// (UF), stall cycles per load (SPL), prefetch accuracy (ACC) and coverage
// (COV), bus traffic broken down into demand / useful prefetch / useless
// prefetch lines, and the row-buffer hit rates RBH and RBHU.
package stats

import "math"

// CoreResult summarizes one core's run (frozen when the core reached its
// instruction target).
type CoreResult struct {
	Benchmark   string
	Cycles      uint64
	Retired     uint64
	Loads       uint64
	StallCycles uint64

	L2Demand    uint64 // demand accesses reaching the last-level cache
	L2Misses    uint64 // demand misses (MPKI numerator)
	DemandReqs  uint64 // misses that went to memory as demand requests
	PrefSent    uint64 // prefetches admitted to the memory request buffer
	PrefUsed    uint64 // useful prefetches (promoted or hit in cache)
	PrefDropped uint64

	// Prefetch-conservation accounting: every admitted prefetch is either
	// serviced by DRAM, dropped by APD, or still buffered/in flight when the
	// core froze, so PrefSent == PrefServiced + PrefDropped + PrefInflight
	// always holds (the runner's invariant checks assert it per job).
	PrefServiced uint64 // admitted prefetches DRAM completed (promoted or pure)
	PrefInflight uint64 // admitted prefetches still outstanding at freeze

	// Attribution holds the cycle-accounting profile in cpu.CycleClass
	// order (retire, demand-miss, mshr-full, compute, idle); nil unless
	// the run enabled profiling. The entries sum to Cycles.
	Attribution []uint64
}

// IPC returns retired instructions per cycle.
func (c CoreResult) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// MPKI returns last-level-cache demand misses per 1 000 instructions.
func (c CoreResult) MPKI() float64 {
	if c.Retired == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.Retired) * 1000
}

// SPL returns instruction-window stall cycles per load.
func (c CoreResult) SPL() float64 {
	if c.Loads == 0 {
		return 0
	}
	return float64(c.StallCycles) / float64(c.Loads)
}

// ACC returns prefetch accuracy: useful / sent.
func (c CoreResult) ACC() float64 {
	if c.PrefSent == 0 {
		return 0
	}
	return float64(c.PrefUsed) / float64(c.PrefSent)
}

// COV returns prefetch coverage: useful / (demand memory requests +
// useful), per §5.2.
func (c CoreResult) COV() float64 {
	den := float64(c.DemandReqs + c.PrefUsed)
	if den == 0 {
		return 0
	}
	return float64(c.PrefUsed) / den
}

// RefreshStats aggregates the DRAM maintenance engine's counters across
// channels; all-zero when refresh is disabled.
type RefreshStats struct {
	Issued        uint64 // refreshes issued
	Postponed     uint64 // obligations that slipped a full tREFI window
	PulledIn      uint64 // refreshes issued early into idle banks
	Forced        uint64 // refreshes fired on the exhausted-credit deadline
	BlockedCycles uint64 // bank-cycles requests waited behind refresh
}

// DomainStats is one memory domain's slice of the run on a multi-tier
// topology: service and row-hit counts, data-bus occupancy, refresh
// interference, and the tier-local PADC accuracy picture per core.
type DomainStats struct {
	Name       string
	Channels   int
	LinkCycles uint64

	Serviced       uint64 // DRAM requests this domain completed
	RowHits        uint64
	BusBusyCycles  uint64 // summed over the domain's channels
	RefreshBlocked uint64 // bank-cycles requests waited behind refresh

	PrefSent uint64 // prefetches steered into this domain
	PrefUsed uint64 // of those, later consumed by a demand

	// Accuracy is each core's tier-local PAR estimate at the end of the
	// run — the value APS promotion and APD drop thresholds acted on.
	Accuracy []float64
}

// RBH returns the domain's row-buffer hit rate.
func (d DomainStats) RBH() float64 {
	if d.Serviced == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Serviced)
}

// ACC returns the domain's measured prefetch accuracy over the whole run.
func (d DomainStats) ACC() float64 {
	if d.PrefSent == 0 {
		return 0
	}
	return float64(d.PrefUsed) / float64(d.PrefSent)
}

// MemSideStats aggregates the memory-side (DRAM-side) prefetch path
// over every controller: the candidate pipeline (generated → enqueued →
// issued, with the drop reasons partitioning the rest) and the issued
// requests' outcomes at the cache (serviced, later consumed, or aged out
// by APD). Nil on Results when the path is disabled.
type MemSideStats struct {
	Generated       uint64 // candidate lines proposed by controllers
	Enqueued        uint64 // admitted to a candidate list
	Issued          uint64 // injected into a request buffer (idle row-hit window)
	Filtered        uint64 // rejected by the cache/MSHR dedupe filter
	DroppedOverflow uint64 // shed by list overflow
	DroppedStale    uint64 // aged out of the candidate list
	DroppedPressure uint64 // shed whole-list under demand pressure
	GateClosed      uint64 // demand triggers suppressed by the PADC accuracy gate

	Serviced uint64 // issued prefetches DRAM completed
	Used     uint64 // of those, later consumed by a demand
	Dropped  uint64 // issued prefetches APD aged out of the buffer
}

// ACC returns the memory-side stream's measured accuracy: consumed fills
// over terminal outcomes (serviced + APD-dropped).
func (m MemSideStats) ACC() float64 {
	den := float64(m.Serviced + m.Dropped)
	if den == 0 {
		return 0
	}
	return float64(m.Used) / den
}

// DSPatchStats summarizes the dual-spatial prefetcher's bias trade-off:
// how many trigger accesses emitted from the coverage-biased versus the
// accuracy-biased pattern, each pattern's measured bit accuracy, and the
// final bandwidth-headroom sample the selector acted on. Nil on Results
// unless the dspatch prefetcher ran.
type DSPatchStats struct {
	Issued       uint64 // prefetch candidates emitted
	CovPSelected uint64 // triggers served by the coverage-biased pattern
	AccPSelected uint64 // triggers served by the accuracy-biased pattern
	CovAccuracy  float64
	AccAccuracy  float64
	Headroom     float64 // last bandwidth-headroom sample fed to the selector
}

// BusTraffic is the system's transferred cache lines by origin.
type BusTraffic struct {
	Demand      uint64
	UsefulPref  uint64
	UselessPref uint64
}

// Total returns all transferred lines.
func (b BusTraffic) Total() uint64 { return b.Demand + b.UsefulPref + b.UselessPref }

// Results is one full simulation outcome.
type Results struct {
	Cycles  uint64 // cycles until the last core reached its target
	PerCore []CoreResult
	Bus     BusTraffic

	Serviced       uint64 // DRAM requests serviced
	RowHits        uint64
	UsefulServiced uint64 // demand + useful-prefetch services
	UsefulRowHits  uint64

	Dropped       uint64
	BufferRejects uint64

	Refresh RefreshStats // DRAM maintenance totals (zero when refresh is off)

	// Domains holds per-domain breakdowns on multi-tier topologies; nil on
	// a flat machine so flat results stay structurally identical to the
	// pre-topology simulator.
	Domains []DomainStats

	// MemSide and DSPatch report the memory-side prefetch path and the
	// dual-spatial prefetcher; both nil when the feature is off, so
	// baseline results stay structurally identical.
	MemSide *MemSideStats
	DSPatch *DSPatchStats

	// Optional traces for Figure 4.
	ServiceHistUseful  []uint64 // histogram buckets of service time, useful prefetches
	ServiceHistUseless []uint64
	AccuracyTrace      []float64 // PAR per interval for core 0
}

// RBH returns the row-buffer hit rate over all serviced requests.
func (r Results) RBH() float64 {
	if r.Serviced == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(r.Serviced)
}

// RBHU returns the row-buffer hit rate over useful requests only (§6.1.1).
func (r Results) RBHU() float64 {
	if r.UsefulServiced == 0 {
		return 0
	}
	return float64(r.UsefulRowHits) / float64(r.UsefulServiced)
}

// Speedup metrics over a multiprogrammed run. ipc[i] is core i's IPC in
// the shared run and ipcAlone[i] its benchmark's IPC when run alone
// (measured with the demand-first policy, as in the paper).

// IndividualSpeedups returns IPC_together / IPC_alone per core.
func IndividualSpeedups(ipc, ipcAlone []float64) []float64 {
	out := make([]float64, len(ipc))
	for i, x := range ipc {
		if ipcAlone[i] > 0 {
			out[i] = x / ipcAlone[i]
		}
	}
	return out
}

// WS returns the weighted speedup (system throughput).
func WS(ipc, ipcAlone []float64) float64 {
	var ws float64
	for _, s := range IndividualSpeedups(ipc, ipcAlone) {
		ws += s
	}
	return ws
}

// HS returns the harmonic mean of speedups (inverse job turnaround time).
// An empty run, or any core with a non-positive speedup (e.g. a zero
// IPC_alone baseline), yields 0 rather than NaN.
func HS(ipc, ipcAlone []float64) float64 {
	ss := IndividualSpeedups(ipc, ipcAlone)
	if len(ss) == 0 {
		return 0
	}
	var inv float64
	for _, s := range ss {
		if s <= 0 {
			return 0
		}
		inv += 1 / s
	}
	return float64(len(ss)) / inv
}

// UF returns unfairness: max speedup over min speedup (§6.3.4). An empty
// run yields 0; a core with a non-positive speedup yields +Inf (maximally
// unfair), never NaN.
func UF(ipc, ipcAlone []float64) float64 {
	ss := IndividualSpeedups(ipc, ipcAlone)
	if len(ss) == 0 {
		return 0
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, s := range ss {
		mn = math.Min(mn, s)
		mx = math.Max(mx, s)
	}
	if mn <= 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// GeoMean returns the geometric mean of xs (used for gmean55-style
// normalized-IPC summaries).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

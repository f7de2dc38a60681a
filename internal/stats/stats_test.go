package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoreResultDerived(t *testing.T) {
	c := CoreResult{
		Cycles: 1000, Retired: 500, Loads: 100, StallCycles: 400,
		L2Misses: 25, DemandReqs: 20, PrefSent: 50, PrefUsed: 40,
	}
	if got := c.IPC(); got != 0.5 {
		t.Fatalf("IPC=%v", got)
	}
	if got := c.MPKI(); got != 50 {
		t.Fatalf("MPKI=%v", got)
	}
	if got := c.SPL(); got != 4 {
		t.Fatalf("SPL=%v", got)
	}
	if got := c.ACC(); got != 0.8 {
		t.Fatalf("ACC=%v", got)
	}
	if got := c.COV(); math.Abs(got-40.0/60.0) > 1e-12 {
		t.Fatalf("COV=%v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var c CoreResult
	for name, v := range map[string]float64{
		"IPC": c.IPC(), "MPKI": c.MPKI(), "SPL": c.SPL(), "ACC": c.ACC(), "COV": c.COV(),
	} {
		if v != 0 {
			t.Errorf("%s on zero result = %v", name, v)
		}
	}
}

// mkCores returns the IPCs of cores that retired ipcs[i]*1000
// instructions in 1000 cycles.
func mkCores(ipcs ...float64) []float64 {
	out := make([]float64, len(ipcs))
	for i, x := range ipcs {
		out[i] = CoreResult{Cycles: 1000, Retired: uint64(x * 1000)}.IPC()
	}
	return out
}

func TestSpeedupMetrics(t *testing.T) {
	together := mkCores(0.5, 1.0)
	alone := []float64{1.0, 1.0}
	if got := WS(together, alone); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("WS=%v", got)
	}
	if got := HS(together, alone); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("HS=%v", got)
	}
	if got := UF(together, alone); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("UF=%v", got)
	}
}

func TestUFPerfectlyFair(t *testing.T) {
	together := mkCores(0.7, 0.7, 0.7)
	alone := []float64{1, 1, 1}
	if got := UF(together, alone); math.Abs(got-1) > 1e-9 {
		t.Fatalf("UF of equal speedups = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("geomean=%v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0, 1}) != 0 {
		t.Fatal("degenerate geomean")
	}
}

// Property: HS <= arithmetic mean of speedups <= max speedup, and WS is
// the sum.
func TestSpeedupInequalities(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		ipcs := make([]float64, len(raw))
		alone := make([]float64, len(raw))
		for i, r := range raw {
			ipcs[i] = float64(r%100)/100 + 0.01
			alone[i] = 1
		}
		cores := mkCores(ipcs...)
		ws := WS(cores, alone)
		hs := HS(cores, alone)
		mean := ws / float64(len(raw))
		return hs <= mean+1e-6 && hs > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBusTrafficTotal(t *testing.T) {
	b := BusTraffic{Demand: 1, UsefulPref: 2, UselessPref: 3}
	if b.Total() != 6 {
		t.Fatalf("total=%d", b.Total())
	}
}

func TestResultsRates(t *testing.T) {
	r := Results{Serviced: 10, RowHits: 4, UsefulServiced: 5, UsefulRowHits: 5}
	if r.RBH() != 0.4 || r.RBHU() != 1.0 {
		t.Fatalf("RBH=%v RBHU=%v", r.RBH(), r.RBHU())
	}
	var zero Results
	if zero.RBH() != 0 || zero.RBHU() != 0 {
		t.Fatal("zero results rates")
	}
}

func TestSpeedupMetricsEmptyInput(t *testing.T) {
	for name, got := range map[string]float64{
		"WS": WS(nil, nil), "HS": HS(nil, nil), "UF": UF(nil, nil),
	} {
		if got != 0 {
			t.Errorf("%s on an empty run = %v, want 0", name, got)
		}
	}
	if IndividualSpeedups(nil, nil) == nil {
		// A non-nil empty slice keeps range loops and len() uniform.
		t.Error("IndividualSpeedups(nil) should return an empty slice, not nil")
	}
}

func TestZeroIPCAloneBaseline(t *testing.T) {
	// A zero alone-IPC baseline (e.g. a misconfigured reference run) must
	// yield a zero speedup for that core, not Inf or NaN.
	together := mkCores(0.5, 1.0)
	alone := []float64{0, 1}
	ss := IndividualSpeedups(together, alone)
	if ss[0] != 0 || ss[1] != 1 {
		t.Fatalf("speedups with zero baseline = %v, want [0 1]", ss)
	}
	if got := WS(together, alone); got != 1 {
		t.Errorf("WS = %v, want the surviving core's 1", got)
	}
	if got := HS(together, alone); got != 0 {
		t.Errorf("HS = %v, want 0 for a non-positive speedup", got)
	}
	if got := UF(together, alone); !math.IsInf(got, 1) {
		t.Errorf("UF = %v, want +Inf (maximally unfair), never NaN", got)
	}
}

func TestGeoMeanNaNPropagates(t *testing.T) {
	// NaN is not <= 0, so it flows through the log/exp pipeline: garbage
	// in, NaN out — callers see the poisoned input rather than a silently
	// plausible number.
	if got := GeoMean([]float64{2, math.NaN()}); !math.IsNaN(got) {
		t.Errorf("GeoMean should propagate NaN, got %v", got)
	}
	if got := GeoMean([]float64{math.Inf(1), 2}); !math.IsInf(got, 1) {
		t.Errorf("GeoMean of +Inf input = %v, want +Inf", got)
	}
}

func TestHSNeverNaN(t *testing.T) {
	cases := [][]float64{{0, 0}, {0, 1}, {1, 1}}
	for _, alone := range cases {
		got := HS(mkCores(1, 1), alone)
		if math.IsNaN(got) {
			t.Errorf("HS with alone=%v is NaN", alone)
		}
	}
}

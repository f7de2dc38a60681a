package exp

import (
	"fmt"
	"strings"
	"testing"

	"padc/internal/sim"
	"padc/internal/telemetry"
	"padc/internal/workload"
)

func tinyScale() Scale { return Scale{Insts: 60_000, Mixes2: 2, Mixes4: 2, Mixes8: 2} }

func TestFig2Shape(t *testing.T) {
	xF, yF, zF := fig2Run(1) // demand-first
	xE, yE, zE := fig2Run(0) // demand-pref-equal
	t.Logf("demand-first: X=%d Y=%d Z=%d | equal: X=%d Y=%d Z=%d", xF, yF, zF, xE, yE, zE)
	// Demand-first finishes Y first but makes X a conflict; equal finishes
	// X and Z first as row hits. The all-served makespan is smaller under
	// equal (the 725 vs 575 contrast).
	if !(yF < xF && xF < zF) {
		t.Errorf("demand-first order wrong: X=%d Y=%d Z=%d", xF, yF, zF)
	}
	if !(xE < zE && zE < yE) {
		t.Errorf("equal order wrong: X=%d Y=%d Z=%d", xE, yE, zE)
	}
	last := func(a, b, c uint64) uint64 { return max(a, max(b, c)) }
	if last(xE, yE, zE) >= last(xF, yF, zF) {
		t.Errorf("equal makespan %d should beat demand-first %d", last(xE, yE, zE), last(xF, yF, zF))
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab := Fig1(tinyScale()).Run()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(tab.Rows))
	}
}

func TestTable1Cost(t *testing.T) {
	tab := Table1()
	out := tab.String()
	if !strings.Contains(out, "AGE") || !strings.Contains(out, "PSC") {
		t.Fatalf("missing cost fields:\n%s", out)
	}
	t.Logf("\n%s", tab)
}

func TestTelemetryTable(t *testing.T) {
	if got := TelemetryTable(nil).String(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil telemetry table:\n%s", got)
	}
	tel := telemetry.New(telemetry.Options{EpochCycles: 5_000})
	m := sim.DefaultMachine(1)
	m.TargetInsts, m.Telemetry = tinyScale().Insts, tel
	cfg, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = []workload.Profile{workload.MustByName("swim")}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	tab := TelemetryTable(tel)
	out := tab.String()
	for _, want := range []string{"core0/acc_estimate", "memctrl0/enqueued", "events/complete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("telemetry table missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", tab)
}

func TestAblationTopologyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab := AblationTopology(Scale{Insts: 60_000, Mixes4: 1}).Run()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 6 { // 3 variants x 2 topologies
		t.Fatalf("want 6 rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		farShare := row[4]
		switch row[1] {
		case "flat":
			if farShare != "-" {
				t.Errorf("flat row has a far-tier share: %v", row)
			}
		case "far-tier":
			// Steering must have routed real traffic to the slow tier.
			if farShare == "-" || farShare == "0.0%" {
				t.Errorf("far-tier row shows no far traffic: %v", row)
			}
		default:
			t.Errorf("unexpected topology label %q", row[1])
		}
	}
}

func TestAblationRefreshShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// Long enough that an all-bank obligation stream exhausts its 8-credit
	// postpone window (8 x tREFI ~ 250K cycles) and hits the forced path;
	// one mix keeps the sweep affordable.
	tab := AblationRefresh(Scale{Insts: 150_000, Mixes4: 1}).Run()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 12 { // 4 variants x 3 refresh modes
		t.Fatalf("want 12 rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		issued, blocked := row[3], row[7]
		if row[1] == "off" {
			if issued != "0" || blocked != "0.0" {
				t.Errorf("refresh-off row has maintenance activity: %v", row)
			}
			continue
		}
		// Refresh on: the engine must have issued refreshes and charged
		// requests for waiting behind them.
		if issued == "0" {
			t.Errorf("refresh-on row issued nothing: %v", row)
		}
		if blocked == "0.0" {
			t.Errorf("refresh-on row blocked no request cycles: %v", row)
		}
	}
}

func TestAblationMemSideShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab := AblationMemSide(Scale{}).Run() // the sweep floors Insts itself
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 8 { // 2 mixes x 2 channel counts x 2 policies
		t.Fatalf("want 8 rows, got %d", len(tab.Rows))
	}
	atoi := func(s string) int {
		n := 0
		fmt.Sscanf(s, "%d", &n)
		return n
	}
	for _, row := range tab.Rows {
		mix, chans, pol := row[0], row[1], row[2]
		covp, accp := atoi(row[5]), atoi(row[6])
		gated := atoi(row[10])
		// Bias selector: CovP on the idle 4-channel bus; AccP on the
		// saturated single channel, but only where the pressure persists —
		// on the irregular mix CovP can't earn the accuracy promotion, and
		// without APD nothing sheds the memory-side traffic keeping the bus
		// busy. (With APD the gate frees bandwidth, headroom recovers, and
		// the selector legitimately drifts back toward coverage.)
		if chans == "4" && covp <= accp {
			t.Errorf("%s/%sch/%s: idle bus should favor CovP (covp=%d accp=%d)", mix, chans, pol, covp, accp)
		}
		if mix == "irregular" && chans == "1" && pol == "aps+memside" && accp <= covp {
			t.Errorf("%s/%sch/%s: saturated bus should favor AccP (covp=%d accp=%d)", mix, chans, pol, covp, accp)
		}
		// PADC gate: only APD configurations may gate generation, and on
		// the low-accuracy mix they must.
		if pol == "aps+memside" && gated != 0 {
			t.Errorf("%s/%sch/%s: gate closed without APD (%d)", mix, chans, pol, gated)
		}
		if pol == "padc+memside" && mix == "irregular" && gated == 0 {
			t.Errorf("%s/%sch/%s: low-accuracy mix never tripped the APD gate", mix, chans, pol)
		}
		if atoi(row[7]) == 0 {
			t.Errorf("%s/%sch/%s: memory-side path issued nothing", mix, chans, pol)
		}
	}
}

package exp

import (
	"fmt"
	"strings"
	"testing"

	"padc/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add("x", "1")
	tab.Addf("y", 2.5)
	out := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "x", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

// TestFigureSpecsLowerPolicies expands every simulated figure's spec
// (no simulation): each must validate, and the standard policies must
// lower to the machines their labels name.
func TestFigureSpecsLowerPolicies(t *testing.T) {
	sc := Quick()
	sweeps := []Sweep{
		Fig1(sc), Fig6(sc, true), Fig7(sc), Fig8(sc), Table5(sc, true), Table7(sc),
		Fig9(sc), Fig10(sc), Fig12(sc), Fig14(sc), Table8(sc), Table9("milc", sc),
		Fig16(sc), Fig17(sc), Fig19(4, sc), Fig19(8, sc), Fig21(4, sc), Fig21(8, sc),
		Fig23(sc), Fig24(sc), Fig25(sc), Fig26(4, sc), Fig26(8, sc), Fig28(sc), Fig29(sc),
		Fig31(sc), Fig32(sc), AblationDropThreshold(sc), AblationPromotionThreshold(sc),
		AblationAddressMapping(sc), AblationRuleOrder(sc), AblationRefresh(sc),
		AblationTopology(sc), AblationMemSide(sc),
	}
	for _, s := range sweeps {
		jobs, err := s.Spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", s.Spec.Name, err)
		}
		for _, j := range jobs {
			apd := j.Config.PADC.EnableAPD
			switch j.Policy {
			case "no-pref":
				if j.Config.Prefetcher != sim.PFNone {
					t.Errorf("%s: no-pref left the prefetcher on", j.Key)
				}
			case "padc":
				if !apd {
					t.Errorf("%s: PADC lost APD", j.Key)
				}
			case "aps", "demand-first":
				if apd {
					t.Errorf("%s: %s kept APD", j.Key, j.Policy)
				}
			}
		}
	}
}

func TestMixesStableAcrossCalls(t *testing.T) {
	a, b := Mixes(4, 3), Mixes(4, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j].Name != b[i][j].Name {
				t.Fatal("experiment mixes must be deterministic")
			}
		}
	}
}

func TestFig6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab := Fig6(tinyScale(), false).Run()
	t.Logf("\n%s", tab)
	g := tab.Rows[len(tab.Rows)-1] // gmean row
	if !strings.HasPrefix(g[0], "gmean") {
		t.Fatalf("last row should be the gmean: %v", g)
	}
	// Column order: no-pref, demand-first(=1.0), equal, aps, padc.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscan(s, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	df, aps, padc := parse(g[2]), parse(g[4]), parse(g[5])
	if df < 0.99 || df > 1.01 {
		t.Fatalf("demand-first normalization broken: %v", df)
	}
	// The paper's headline: the adaptive policies beat demand-first on
	// average; allow slack at the tiny scale.
	if aps < 0.95*df || padc < 0.95*df {
		t.Errorf("adaptive policies collapsed: aps=%v padc=%v", aps, padc)
	}
}

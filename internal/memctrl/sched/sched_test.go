package sched

import (
	"strings"
	"testing"
)

func TestParseRulesString(t *testing.T) {
	s, err := Parse("rules:critical, rowhit ,urgent,fcfs")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "rules:critical,rowhit,urgent,fcfs" {
		t.Errorf("canonical form = %q", got)
	}
	if !s.Uses("urgent") || s.Uses("rank") {
		t.Errorf("Uses: urgent=%v rank=%v", s.Uses("urgent"), s.Uses("rank"))
	}
	// Round trip: the canonical form parses back to itself.
	s2, err := Parse(s.String())
	if err != nil || s2.String() != s.String() {
		t.Fatalf("round trip: %q, %v", s2, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",                      // unknown
		"padc",                  // APD is not a scheduling rule
		"aps",                   // a policy name, not a rules: list
		"rules:",                // empty list
		"rules:frobnicate",      // unknown rule
		"rules:rowhit,rowhit",   // duplicate
		"rules:fcfs,rowhit",     // unreachable after fcfs
		"rules:rowhit,,fcfs",    // empty element
		"RULES:rowhit",          // case-sensitive prefix
		"rules:critical rowhit", // missing comma => unknown rule
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	// Error text should teach the syntax.
	_, err := Parse("bogus")
	if err == nil || !strings.Contains(err.Error(), Prefix) {
		t.Errorf("unknown-policy error should mention the %q syntax: %v", Prefix, err)
	}
}

// compareKeys orders a and b by rule name's key alone: 1 when a
// schedules first, -1 when b does, 0 when the rule leaves it to the next.
func compareKeys(t *testing.T, name string, a, b Cand) int {
	t.Helper()
	r, ok := lookup(name)
	if !ok {
		t.Fatalf("rule %q not in the vocabulary", name)
	}
	switch ka, kb := r.key(a), r.key(b); {
	case ka > kb:
		return 1
	case ka < kb:
		return -1
	}
	return 0
}

func TestRuleSemantics(t *testing.T) {
	// Each rule orders its attribute and abstains otherwise.
	cases := []struct {
		rule string
		a, b Cand
		want int
	}{
		{"critical", Cand{Critical: true}, Cand{}, 1},
		{"critical", Cand{}, Cand{Critical: true}, -1},
		{"critical", Cand{Critical: true}, Cand{Critical: true}, 0},
		{"rowhit", Cand{Hit: true}, Cand{}, 1},
		{"urgent", Cand{Urgent: true}, Cand{}, 1},
		{"demandfirst", Cand{}, Cand{Pref: true}, 1},
		{"demandfirst", Cand{Pref: true}, Cand{}, -1},
		{"prefetchfirst", Cand{Pref: true}, Cand{}, 1},
		{"fcfs", Cand{Seq: 1}, Cand{Seq: 2}, 1},
		{"fcfs", Cand{Seq: 2}, Cand{Seq: 1}, -1},
		// Rank orders critical requests by rank, higher first…
		{"rank", Cand{Critical: true, Rank: -1}, Cand{Critical: true, Rank: -3}, 1},
		// …treats a non-critical request as rank 0 (it can outrank a
		// critical one here; criticality splits earlier in real stacks)…
		{"rank", Cand{Rank: -5}, Cand{Critical: true, Rank: -3}, 1},
		// …and abstains on equal effective rank.
		{"rank", Cand{Critical: true, Rank: -2}, Cand{Critical: true, Rank: -2}, 0},
	}
	for _, c := range cases {
		if got := compareKeys(t, c.rule, c.a, c.b); got != c.want {
			t.Errorf("%s keys order %+v vs %+v as %d, want %d", c.rule, c.a, c.b, got, c.want)
		}
	}
}

func TestStackBetterOrderAndDecider(t *testing.T) {
	s := MustParse("rules:critical,rowhit,urgent,fcfs")
	// Criticality dominates row-hit status.
	crit := Cand{Seq: 2, Critical: true}
	hit := Cand{Seq: 1, Hit: true}
	if better, by := s.Better(crit, hit); !better || s.Names()[by] != "critical" {
		t.Errorf("critical should dominate: better=%v by=%s", better, s.Names()[by])
	}
	// Fully tied candidates fall to the explicit fcfs rule.
	a := Cand{Seq: 1, Critical: true}
	b := Cand{Seq: 2, Critical: true}
	if better, by := s.Better(a, b); !better || s.Names()[by] != "fcfs" {
		t.Errorf("fcfs tiebreak: better=%v by=%s", better, s.Names()[by])
	}
	if better, _ := s.Better(b, a); better {
		t.Error("younger request won the fcfs tiebreak")
	}
}

// TestImplicitFCFSFallback checks that a stack without fcfs gets the fcfs
// row appended, decides ties there, and still spells itself as listed.
func TestImplicitFCFSFallback(t *testing.T) {
	s := MustParse("rules:rowhit") // no explicit fcfs
	if got := strings.Join(s.Names(), ","); got != "rowhit,fcfs" {
		t.Errorf("Names = %s, want rowhit,fcfs", got)
	}
	if s.String() != "rules:rowhit" {
		t.Errorf("String = %q, want the spelling as listed", s)
	}
	a := Cand{Seq: 1}
	b := Cand{Seq: 2}
	better, by := s.Better(a, b)
	if !better || by != 1 || s.Names()[by] != "fcfs" {
		t.Errorf("implicit fallback: better=%v by=%d name=%s", better, by, s.Names()[by])
	}
}

// TestStackIsStrictTotalOrder checks antisymmetry over a candidate cross
// product: exactly one of Better(a,b) / Better(b,a) holds for a != b.
// memctrl's TestPolicyStacksAreStrictTotalOrders checks the named
// policies' stacks the same way.
func TestStackIsStrictTotalOrder(t *testing.T) {
	var cands []Cand
	seq := uint64(0)
	for _, crit := range []bool{false, true} {
		for _, hit := range []bool{false, true} {
			for _, urg := range []bool{false, true} {
				for _, pref := range []bool{false, true} {
					for _, rank := range []int{-2, 0} {
						cands = append(cands, Cand{
							Seq: seq, Critical: crit, Hit: hit, Urgent: urg, Pref: pref, Rank: rank,
						})
						seq++
					}
				}
			}
		}
	}
	s := MustParse("rules:rank,urgent,prefetchfirst")
	for i, a := range cands {
		for j, b := range cands {
			if i == j {
				continue
			}
			ab, _ := s.Better(a, b)
			ba, _ := s.Better(b, a)
			if ab == ba {
				t.Fatalf("%s: Better not antisymmetric for %+v vs %+v (both %v)", s, a, b, ab)
			}
		}
	}
}

func TestRefreshRuleOrdering(t *testing.T) {
	s, err := Parse("rules:critical,rowhit,refresh,fcfs")
	if err != nil {
		t.Fatal(err)
	}
	refresh := Cand{IsRefresh: true, Seq: ^uint64(0)}
	crit := Cand{Critical: true, Seq: 5}
	hit := Cand{Hit: true, Seq: 7}
	plain := Cand{Seq: 1}

	if better, _ := s.Better(refresh, crit); better {
		t.Error("refresh must yield to a critical request placed above it")
	}
	if better, _ := s.Better(refresh, hit); better {
		t.Error("refresh must yield to a row-hit placed above it")
	}
	better, by := s.Better(refresh, plain)
	if !better {
		t.Error("refresh must beat a plain request below it in the stack")
	}
	if s.Names()[by] != "refresh" {
		t.Errorf("decider = %s, want refresh", s.Names()[by])
	}
	// Stacks without the rule never prefer the pseudo-candidate: its Seq
	// is the maximum, so even the FCFS fallback rejects it.
	plainStack := MustParse("rules:rowhit,fcfs")
	if better, _ := plainStack.Better(refresh, plain); better {
		t.Error("a stack without the refresh rule preferred the pseudo-candidate")
	}
}

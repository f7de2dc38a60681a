// Package sched is the memory controller's scheduling kernel: one table
// of priority rules and an ordered rule stack that compares schedulable
// requests.
//
// The paper's contribution is literally a priority ordering (Critical >
// Row-hit > Urgent > Rank > FCFS, §5–6), so every scheduling policy is
// expressed here as a declarative stack of rules rather than a monolithic
// comparator: plain FR-FCFS is `rowhit,fcfs`, the demand-first baseline is
// `demandfirst,rowhit,fcfs`, Adaptive Prefetch Scheduling is
// `critical,rowhit,urgent,fcfs`, and §6.5's ranking variant inserts `rank`
// before `fcfs`. Custom stacks parse from a `rules:` string
// (e.g. "rules:critical,rowhit,urgent,fcfs"), which makes §6-style
// priority-order ablations a configuration grid instead of new code.
//
// Each rule is a row of the table: a name and a key over one candidate,
// where a higher key schedules first. A stack that does not list `fcfs`
// gets the `fcfs` row appended, so every comparison ends at a real rule.
//
// The package is deliberately free of controller internals: rules key on
// Cand values whose fields (row-hit status, criticality, urgency, rank)
// the controller derives from its indexes before arbitration.
package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Cand is one schedulable request's priority inputs, precomputed by the
// controller so each rule's key is a pure field read.
type Cand struct {
	Seq      uint64 // admission order, the universal FCFS tiebreak
	Rank     int    // per-core shortest-job rank (higher schedules first)
	Pref     bool   // currently a prefetch (promoted prefetches are demands)
	Hit      bool   // request targets its bank's open row
	Critical bool   // demand, or prefetch of an accurate core (rule 1)
	Urgent   bool   // demand of a core whose prefetching is inaccurate (rule 3)

	// IsRefresh marks the pseudo-candidate the controller synthesizes for a
	// bank with a due refresh when the stack contains the "refresh" rule.
	// Every other field is zero and Seq is the maximum, so rules ahead of
	// "refresh" in the stack define exactly which request classes a due
	// refresh yields to, and the fcfs tiebreak always rejects it.
	IsRefresh bool
}

// rule is one row of the vocabulary: a name and the key it orders
// candidates by. A higher key schedules first; equal keys leave the
// decision to the next rule in the stack.
type rule struct {
	name string
	key  func(Cand) uint64
}

// flag keys a boolean rule: true schedules first.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// rules is the rule vocabulary Parse accepts.
var rules = []rule{
	// Rule 1: critical requests (demands, and prefetches of cores whose
	// measured accuracy promoted them) first.
	{"critical", func(c Cand) uint64 { return flag(c.Critical) }},
	// Rule 2: row-buffer hits first (the FR of FR-FCFS).
	{"rowhit", func(c Cand) uint64 { return flag(c.Hit) }},
	// Rule 3: demands of cores with inaccurate prefetching outrank
	// requests of equal criticality and row-hit status.
	{"urgent", func(c Cand) uint64 { return flag(c.Urgent) }},
	// The rigid demand-first class split: any demand outranks any prefetch.
	{"demandfirst", func(c Cand) uint64 { return flag(!c.Pref) }},
	// The footnote-2 strawman: prefetches first.
	{"prefetchfirst", func(c Cand) uint64 { return flag(c.Pref) }},
	// A due refresh's pseudo-candidate outranks any request once no rule
	// ahead of it in the stack objects. Placing the rule after
	// critical/rowhit, say, yields the paper-style "refresh when the bank
	// has no urgent work" policy; stacks without the rule never see a
	// refresh candidate (the engine then refreshes only idle banks and at
	// forced deadlines).
	{"refresh", func(c Cand) uint64 { return flag(c.IsRefresh) }},
	// The §6.5 shortest-job ranking stage: among critical requests, cores
	// with fewer outstanding critical requests first. A non-critical
	// request competes with rank 0, matching the paper's rule table
	// (ranking applies to critical requests only). Flipping the sign bit
	// maps signed order onto unsigned order.
	{"rank", func(c Cand) uint64 {
		if !c.Critical {
			return 1 << 63
		}
		return uint64(int64(c.Rank)) ^ 1<<63
	}},
	// The final oldest-first tiebreak. Sequence numbers are unique per
	// controller, so this rule is always decisive.
	{"fcfs", func(c Cand) uint64 { return ^c.Seq }},
}

// lookup returns the vocabulary row named name.
func lookup(name string) (rule, bool) {
	for _, r := range rules {
		if r.name == name {
			return r, true
		}
	}
	return rule{}, false
}

// RuleNames returns the accepted rule vocabulary, sorted.
func RuleNames() []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.name
	}
	sort.Strings(out)
	return out
}

// Prefix introduces a custom rule stack in every policy surface
// (sim config, sweep specs, the -policy flag): "rules:critical,rowhit,fcfs".
const Prefix = "rules:"

// Stack is an ordered chain of priority rules; earlier rules dominate,
// and the last rule is always fcfs. The zero Stack is invalid — build one
// with Parse or MustParse.
type Stack struct {
	spec  string // canonical "rules:..." form, as listed
	rules []rule // as listed, then fcfs when the list lacks it
}

// Parse builds a Stack from a "rules:" list such as
// "rules:critical,rowhit,urgent,fcfs". Other prefixes, unknown names,
// empty elements, duplicate rules and rules listed after the
// always-decisive fcfs are rejected. A list without fcfs gets it appended.
func Parse(policy string) (Stack, error) {
	list, ok := strings.CutPrefix(policy, Prefix)
	if !ok {
		return Stack{}, fmt.Errorf("sched: policy %q is not a %s<list> stack over %s",
			policy, Prefix, strings.Join(RuleNames(), ", "))
	}
	parts := strings.Split(list, ",")
	s := Stack{rules: make([]rule, 0, len(parts)+1)}
	seen := map[string]bool{}
	for _, p := range parts {
		name := strings.TrimSpace(p)
		if name == "" {
			return Stack{}, fmt.Errorf("sched: empty rule name in %q", policy)
		}
		r, ok := lookup(name)
		if !ok {
			return Stack{}, fmt.Errorf("sched: unknown rule %q (known: %s)", name, strings.Join(RuleNames(), ", "))
		}
		if seen[name] {
			return Stack{}, fmt.Errorf("sched: duplicate rule %q in %q", name, policy)
		}
		if seen["fcfs"] {
			return Stack{}, fmt.Errorf("sched: rule %q is unreachable after fcfs in %q", name, policy)
		}
		seen[name] = true
		s.rules = append(s.rules, r)
	}
	s.spec = Prefix + strings.Join(s.Names(), ",")
	if !seen["fcfs"] {
		fcfs, _ := lookup("fcfs")
		s.rules = append(s.rules, fcfs)
	}
	return s, nil
}

// MustParse is Parse for statically-known stacks; it panics on error.
func MustParse(policy string) Stack {
	s, err := Parse(policy)
	if err != nil {
		panic(err)
	}
	return s
}

// String returns the canonical "rules:..." spelling of the stack, as
// listed (an appended fcfs is not spelled out).
func (s Stack) String() string { return s.spec }

// Names returns the rule names in priority order, ending in fcfs.
func (s Stack) Names() []string {
	out := make([]string, len(s.rules))
	for i, r := range s.rules {
		out[i] = r.name
	}
	return out
}

// Uses reports whether the stack contains the named rule; the controller
// consults it to skip maintaining inputs no rule reads.
func (s Stack) Uses(name string) bool {
	for _, r := range s.rules {
		if r.name == name {
			return true
		}
	}
	return false
}

// Better reports whether a should be scheduled before b, and which rule
// decided: the index into Names of the first rule whose keys differ.
// Sequence numbers are unique and fcfs is always last, so for distinct
// candidates the result is a strict total order regardless of scan order.
func (s Stack) Better(a, b Cand) (better bool, decider int) {
	for i, r := range s.rules {
		if ka, kb := r.key(a), r.key(b); ka != kb {
			return ka > kb, i
		}
	}
	return false, len(s.rules) - 1
}

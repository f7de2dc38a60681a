package runner

import (
	"fmt"

	"padc/internal/stats"
	"padc/internal/telemetry/lifecycle"
)

// VerifyResults checks the simulator's cross-cutting accounting
// identities on one run's results:
//
//  1. cycle-accounting: each profiled core's attribution buckets sum to
//     its frozen cycle count (every cycle lands in exactly one class);
//  2. prefetch conservation: per core, admitted prefetches equal
//     serviced + dropped + still-in-flight (nothing leaks from the
//     request buffer);
//  3. span decomposition: for every recorded lifecycle span, queue wait
//     plus DRAM service equals the span's total latency, and the stage
//     stamps are monotone;
//  4. memory-side conservation, when the path ran: no stage of the
//     candidate pipeline (generated, admitted, issued, serviced, used)
//     accounts for more than the stage before it.
//
// The sweep engine runs these on every job when Options.Verify is set, so
// a regression in any accounting path turns sweeps red rather than
// silently skewing tables. The returned slice is empty when all
// invariants hold.
func VerifyResults(res stats.Results, spans []lifecycle.Span) []error {
	var errs []error
	for i, c := range res.PerCore {
		if c.Attribution != nil {
			var sum uint64
			for _, v := range c.Attribution {
				sum += v
			}
			if sum != c.Cycles {
				errs = append(errs, fmt.Errorf(
					"core %d (%s): attribution buckets sum to %d cycles, frozen at %d",
					i, c.Benchmark, sum, c.Cycles))
			}
		}
		if got := c.PrefServiced + c.PrefDropped + c.PrefInflight; got != c.PrefSent {
			errs = append(errs, fmt.Errorf(
				"core %d (%s): prefetch conservation broken: serviced %d + dropped %d + inflight %d = %d, sent %d",
				i, c.Benchmark, c.PrefServiced, c.PrefDropped, c.PrefInflight, got, c.PrefSent))
		}
		if c.PrefUsed > c.PrefSent {
			errs = append(errs, fmt.Errorf(
				"core %d (%s): %d useful prefetches exceed %d sent",
				i, c.Benchmark, c.PrefUsed, c.PrefSent))
		}
	}
	if m := res.MemSide; m != nil {
		errs = append(errs, verifyMemSide(*m)...)
	}
	for _, sp := range spans {
		if err := verifySpan(sp); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// verifyMemSide checks the memory-side pipeline's conservation. Each is
// an inequality because the remainder is still pending: a candidate
// admitted but neither issued nor dropped waits in a list, and an issued
// prefetch neither serviced nor dropped is still in a request buffer.
func verifyMemSide(m stats.MemSideStats) []error {
	var errs []error
	if m.Enqueued+m.Filtered > m.Generated {
		errs = append(errs, fmt.Errorf(
			"memside: enqueued %d + filtered %d exceed %d generated",
			m.Enqueued, m.Filtered, m.Generated))
	}
	if out := m.Issued + m.DroppedOverflow + m.DroppedStale + m.DroppedPressure; out > m.Enqueued {
		errs = append(errs, fmt.Errorf(
			"memside: issued %d + dropped overflow %d + stale %d + pressure %d exceed %d enqueued",
			m.Issued, m.DroppedOverflow, m.DroppedStale, m.DroppedPressure, m.Enqueued))
	}
	if m.Serviced+m.Dropped > m.Issued {
		errs = append(errs, fmt.Errorf(
			"memside: serviced %d + dropped %d exceed %d issued", m.Serviced, m.Dropped, m.Issued))
	}
	if m.Used > m.Serviced {
		errs = append(errs, fmt.Errorf("memside: %d used exceed %d serviced", m.Used, m.Serviced))
	}
	return errs
}

// verifySpan checks one lifecycle span's latency decomposition.
func verifySpan(sp lifecycle.Span) error {
	if sp.Finish < sp.Enqueue {
		return fmt.Errorf("span core %d line %#x: finish %d before enqueue %d",
			sp.Core, sp.Line, sp.Finish, sp.Enqueue)
	}
	total := sp.Finish - sp.Enqueue
	if sp.Issue == 0 {
		// Dropped before issue: the whole life is queue wait.
		if sp.Service() != 0 || sp.QueueWait() != total {
			return fmt.Errorf("span core %d line %#x: dropped span decomposes to wait %d + service %d, total %d",
				sp.Core, sp.Line, sp.QueueWait(), sp.Service(), total)
		}
		return nil
	}
	if sp.Issue < sp.Enqueue || sp.Finish < sp.Issue {
		return fmt.Errorf("span core %d line %#x: non-monotone stamps enqueue %d issue %d finish %d",
			sp.Core, sp.Line, sp.Enqueue, sp.Issue, sp.Finish)
	}
	if sp.QueueWait()+sp.Service() != total {
		return fmt.Errorf("span core %d line %#x: wait %d + service %d != total %d",
			sp.Core, sp.Line, sp.QueueWait(), sp.Service(), total)
	}
	return nil
}

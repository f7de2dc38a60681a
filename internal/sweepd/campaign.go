package sweepd

import (
	"context"
	"path/filepath"
	"sort"
	"sync"

	"padc/internal/runner"
)

// State is a campaign's position in its lifecycle state machine:
//
//	pending ──start──▶ running ──last row──▶ completed
//	                     │  │
//	          user cancel│  │engine error
//	                     ▼  ▼
//	               cancelled  failed
//
// A server restart re-enters running campaigns at running (resume):
// journaled rows are replayed through the engine's Reuse hook and only
// the remainder executes. Terminal states persist across restarts via
// their journal events; an interrupted campaign (no terminal event in the
// journal) is the only kind that resumes.
type State int

const (
	StatePending State = iota
	StateRunning
	StateCompleted
	StateFailed
	StateCancelled
)

var stateNames = [...]string{"pending", "running", "completed", "failed", "cancelled"}

func (s State) String() string { return stateNames[s] }

// streamWindow is the default per-subscriber buffered-row window; a
// consumer that falls further behind than this is disconnected (it can
// reconnect with ?offset= and replay from memory).
const defaultStreamWindow = 256

// journalWindow bounds completed-but-not-yet-journaled rows. The engine's
// Progress callback blocks once the window fills, so a slow disk
// backpressures the worker pool instead of growing memory.
const journalWindow = 256

// subscriber is one attached row-stream consumer.
type subscriber struct {
	ch chan RowEvent // buffered: the consumer's in-flight window
	// lagged is set (before ch closes, under the campaign mutex) when the
	// consumer was disconnected for falling behind its window; the HTTP
	// handler reports it as a stream-level error after draining.
	lagged bool
}

// Campaign is one submitted sweep: its spec, journal, live progress, and
// attached row streams. All mutable state is guarded by mu; the run loop
// lives in Service.start.
type Campaign struct {
	ID        string
	spec      runner.Spec
	shard     runner.Shard
	workers   int
	verify    bool
	telemetry bool
	total     int
	dir       string

	metrics *campaignMetrics

	mu        sync.Mutex
	state     State
	errMsg    string
	rows      []runner.JobResult // completion order: journal replay, then live
	doneIdx   map[int]bool
	failed    int
	reused    int
	running   int
	journaled int // rows durably appended (≤ len(rows))
	subs      map[*subscriber]bool
	window    int

	cancel context.CancelFunc
	done   chan struct{} // closed when the run loop exits
}

// Info snapshots the campaign's wire status.
func (c *Campaign) Info() CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CampaignInfo{
		ID:            c.ID,
		Name:          c.spec.Name,
		State:         c.state.String(),
		Shard:         c.shard,
		Telemetry:     c.telemetry,
		Total:         c.total,
		Done:          len(c.rows),
		Running:       c.running,
		Failed:        c.failed,
		Reused:        c.reused,
		CheckpointLag: len(c.rows) - c.journaled,
		Error:         c.errMsg,
	}
}

// Telemetry reports whether the campaign journals per-job flight
// telemetry with its rows.
func (c *Campaign) Telemetry() bool { return c.telemetry }

// TelemetryRecords reads the campaign's flight records back out of its
// journal, under the journal's torn-tail, first-wins and shard-ownership
// rules, sorted by (key, index) — deterministic bytes once the campaign
// completes, regardless of worker count or resume history.
func (c *Campaign) TelemetryRecords() ([]TelemetryRecord, error) {
	rec, err := readJournal(filepath.Join(c.dir, journalName))
	if err != nil {
		return nil, err
	}
	recs := rec.flights
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].Index < recs[j].Index
	})
	return recs, nil
}

// Result merges the rows completed so far into the deterministic
// artifact shape. Once the campaign is completed this is byte-identical
// to a single-process run of the same spec (and shard).
func (c *Campaign) Result() *runner.SweepResult {
	c.mu.Lock()
	rows := append([]runner.JobResult(nil), c.rows...)
	c.mu.Unlock()
	return runner.MergeRows(c.spec, rows)
}

// setState moves the state machine, broadcasting the terminal event to
// every subscriber. Transitions out of a terminal state are ignored (a
// user cancel racing completion keeps whichever landed first).
func (c *Campaign) setState(s State, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateCompleted || c.state == StateFailed || c.state == StateCancelled {
		return
	}
	c.state = s
	c.errMsg = errMsg
	c.metrics.state.Set(float64(s))
	if s == StateCompleted || s == StateFailed || s == StateCancelled {
		ev := RowEvent{Done: true, State: s.String(), Err: errMsg}
		for sub := range c.subs {
			// Terminal events must not be lost to a full window; a dedicated
			// non-blocking attempt first, then a forced close — the stream's
			// end is visible either way because the channel closes.
			select {
			case sub.ch <- ev:
			default:
			}
			close(sub.ch)
			delete(c.subs, sub)
		}
	}
}

// terminalLocked reports whether the campaign is in a final state.
// Callers hold mu.
func (c *Campaign) terminalLocked() bool {
	return c.state == StateCompleted || c.state == StateFailed || c.state == StateCancelled
}

// appendRow records one completed row (live completion, not journal
// replay) and fans it out to subscribers. A subscriber whose window is
// full is disconnected with a lagged error event — slow consumers shed
// load instead of stalling the campaign or growing memory.
func (c *Campaign) appendRow(r runner.JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, r)
	if r.Err != "" {
		c.failed++
		c.metrics.jobsFailed.Inc()
	}
	c.metrics.jobsDone.Inc()
	c.metrics.lag.Set(float64(len(c.rows) - c.journaled))
	ev := RowEvent{Seq: len(c.rows), Row: &r}
	for sub := range c.subs {
		select {
		case sub.ch <- ev:
			c.metrics.rowsStreamed.Inc()
		default:
			// Window full: the consumer is shed rather than stalling the
			// campaign. lagged is visible to the handler after the close.
			sub.lagged = true
			close(sub.ch)
			delete(c.subs, sub)
		}
	}
}

// markJournaled advances the durable-row watermark (the checkpoint-lag
// gauge's other half).
func (c *Campaign) markJournaled(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journaled = n
	c.metrics.lag.Set(float64(len(c.rows) - c.journaled))
}

// subscribe attaches a row stream starting after row offset (0 streams
// from the beginning). It returns the backlog of rows already completed
// past the offset, the live subscriber (nil when the campaign is already
// terminal), and the campaign state at attach time. Backlog copy and
// registration are atomic with appendRow, so no row is missed or
// duplicated between backlog and live stream.
func (c *Campaign) subscribe(offset int) (backlog []runner.JobResult, sub *subscriber, state State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if offset < 0 {
		offset = 0
	}
	if offset > len(c.rows) {
		offset = len(c.rows)
	}
	backlog = append(backlog, c.rows[offset:]...)
	if c.terminalLocked() {
		return backlog, nil, c.state
	}
	sub = &subscriber{ch: make(chan RowEvent, c.window)}
	c.subs[sub] = true
	return backlog, sub, c.state
}

// closeSubs detaches every subscriber without declaring a terminal state
// (service shutdown): the streams simply end, and consumers reconnect
// with ?offset= after the server restarts and resumes.
func (c *Campaign) closeSubs() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for sub := range c.subs {
		close(sub.ch)
		delete(c.subs, sub)
	}
}

// unsubscribe detaches a consumer (client went away).
func (c *Campaign) unsubscribe(sub *subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.subs[sub] {
		close(sub.ch)
		delete(c.subs, sub)
	}
}

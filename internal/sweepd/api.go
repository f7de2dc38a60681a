// Package sweepd is the distributed sweep service: a campaign manager
// that accepts sweep-spec uploads over an HTTP/JSON API, executes them on
// the deterministic engine in internal/runner, streams per-job result
// rows back with backpressure, and checkpoints every completed row to a
// write-ahead journal so a campaign survives a crash or restart — resumed
// runs skip finished jobs and still merge into the same sorted-key,
// byte-identical CSV/JSON artifacts a single-process `padcsim -sweep`
// produces.
//
// The layering is deliberate: internal/runner stays a pure in-process
// engine (grid expansion, worker pool, key-sorted merge); sweepd adds the
// service concerns — campaign lifecycle state machine, journal format
// with torn-line recovery, shard coordination across cooperating servers,
// row streaming, and per-campaign Prometheus metrics — without touching
// the engine's determinism contract. Distribution is safe precisely
// because every job row is a pure function of (spec, stable grid index).
//
// API surface (JSON over HTTP, see Service.Handler):
//
//	POST /api/v1/campaigns            submit {spec, workers, verify, shard, telemetry}
//	GET  /api/v1/campaigns            list campaign summaries
//	GET  /api/v1/campaigns/{id}       one campaign's status
//	POST /api/v1/campaigns/{id}/cancel
//	GET  /api/v1/campaigns/{id}/rows  NDJSON row stream (?offset=N resumes)
//	GET  /api/v1/campaigns/{id}/artifact.csv
//	GET  /api/v1/campaigns/{id}/artifact.json
//	GET  /api/v1/campaigns/{id}/telemetry  per-job flight roll-ups, NDJSON
//	GET  /metrics                     Prometheus exposition (incl. per-route RED)
//	GET  /healthz                     liveness (process up)
//	GET  /readyz                      readiness (journal replay finished)
//
// Every response carries an X-Request-ID (propagated from the request
// when present), and every request is counted, timed, and access-logged
// by the middleware in middleware.go.
package sweepd

import (
	"encoding/json"

	"padc/internal/runner"
)

// SubmitRequest is the POST /api/v1/campaigns body: a runner sweep spec
// plus execution options. Spec is kept raw so the service parses and
// validates it with the engine's own parser (DisallowUnknownFields and
// all) and stores exactly what will run.
type SubmitRequest struct {
	// Spec is the declarative sweep spec (see runner.Spec / EXPERIMENTS.md).
	Spec json.RawMessage `json:"spec"`
	// Workers bounds this campaign's worker pool; 0 uses the server default.
	Workers int `json:"workers,omitempty"`
	// Verify runs the accounting-invariant checks on every job.
	Verify bool `json:"verify,omitempty"`
	// Shard restricts this server to the grid slice it owns; cooperating
	// servers submit the same spec with different shard indexes and union
	// the rows afterwards (runner.MergeRows).
	Shard runner.Shard `json:"shard,omitempty"`
	// Telemetry attaches a bank-state flight recorder to every job and
	// journals each job's roll-up on its row's journal line, served at
	// GET /api/v1/campaigns/{id}/telemetry. Row artifacts are unchanged
	// either way.
	Telemetry bool `json:"telemetry,omitempty"`
}

// CampaignInfo is the wire status of one campaign.
type CampaignInfo struct {
	ID    string       `json:"id"`
	Name  string       `json:"name"`
	State string       `json:"state"`
	Shard runner.Shard `json:"shard,omitempty"`
	// Telemetry reports whether the campaign journals per-job flight
	// roll-ups.
	Telemetry bool `json:"telemetry,omitempty"`

	// Total counts the jobs this campaign owns (its shard's slice of the
	// grid); Done includes Failed and Reused.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Running int `json:"running"`
	Failed  int `json:"failed"`
	// Reused counts rows recovered from the journal instead of executed.
	Reused int `json:"reused"`
	// CheckpointLag is how many completed rows are not yet durably
	// journaled (the bounded window between the engine and the WAL).
	CheckpointLag int `json:"checkpoint_lag"`

	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the campaign reached a final state.
func (ci CampaignInfo) Terminal() bool {
	switch ci.State {
	case StateCompleted.String(), StateFailed.String(), StateCancelled.String():
		return true
	}
	return false
}

// RowEvent is one line of the NDJSON row stream. Exactly one of Row /
// Done / Err is meaningful: a result row, the terminal event carrying the
// campaign's final state, or a stream-level error (the slow-consumer
// disconnect). Seq is the row's 1-based position in completion order;
// reconnect with ?offset=<last seq> to resume the stream without gaps.
type RowEvent struct {
	Seq   int               `json:"seq,omitempty"`
	Row   *runner.JobResult `json:"row,omitempty"`
	Done  bool              `json:"done,omitempty"`
	State string            `json:"state,omitempty"`
	Err   string            `json:"err,omitempty"`
}

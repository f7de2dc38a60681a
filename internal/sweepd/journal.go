package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"padc/internal/runner"
	"padc/internal/telemetry/flight"
)

// The journal is the campaign's write-ahead log and its only file: one
// JSONL file per campaign, append-only. The first line is the header
// (campaign identity plus the exact spec that will run); every subsequent
// line is either a completed job row or a lifecycle event. A telemetry
// campaign's row lines also carry the job's flight-recorder roll-up, so a
// row and its telemetry become durable in the same write. Recovery
// tolerates a torn final line — a crash mid-append loses at most the row
// being written, and the resumed run simply re-executes it (rows are pure
// functions of the spec, so re-execution is idempotent).
//
//	{"v":1,"id":"c1a2b3c4","spec":{...},"shard":{"index":0,"count":1},"total":16,...}
//	{"row":{"index":3,"key":"policy=aps/...","cycles":123,...}}
//	{"row":{...},"flight":{"epoch_cycles":...}}
//	{"event":"completed"}
//
// Terminal events ("completed", "cancelled", "failed") pin the state
// machine across restarts: a journal without one is an interrupted
// campaign and is auto-resumed on server start. A graceful shutdown
// writes no terminal event on purpose — shutdown is an interruption, not
// an outcome.

// journalVersion guards the on-disk format.
const journalVersion = 1

// journalName is the file each campaign directory holds.
const journalName = "journal.jsonl"

// journalHeader is line one of the journal.
type journalHeader struct {
	V     int          `json:"v"`
	ID    string       `json:"id"`
	Spec  runner.Spec  `json:"spec"`
	Shard runner.Shard `json:"shard"`
	// Total is the number of jobs this campaign owns; recovery checks
	// journaled rows against it.
	Total   int  `json:"total"`
	Workers int  `json:"workers,omitempty"`
	Verify  bool `json:"verify,omitempty"`
	// Telemetry records whether the campaign's row lines carry per-job
	// flight roll-ups, so a resumed run keeps recording.
	Telemetry bool `json:"telemetry,omitempty"`
}

// journalLine is every line after the header. Flight rides next to Row
// rather than inside it, so the row object's bytes do not depend on
// whether the campaign records telemetry.
type journalLine struct {
	Row    *runner.JobResult `json:"row,omitempty"`
	Flight *flight.Summary   `json:"flight,omitempty"`
	Event  string            `json:"event,omitempty"`
	Detail string            `json:"detail,omitempty"`
}

// TelemetryRecord is one line of the GET /api/v1/campaigns/{id}/telemetry
// NDJSON stream: one job's flight-recorder roll-up, addressed by the
// job's stable grid index and sort key.
type TelemetryRecord struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Flight *flight.Summary `json:"flight,omitempty"`
}

// journalSyncEvery bounds how many appended rows may ride on the OS page
// cache before an fsync; Close and terminal events always sync. Process
// death (SIGKILL) cannot lose flushed rows — only a machine crash can
// lose up to this window, and recovery re-runs those jobs.
const journalSyncEvery = 64

// Journal is the append side. Appends are serialized by the campaign's
// single journal-writer goroutine, but the mutex keeps the type safe to
// use from tests directly.
type Journal struct {
	path string
	f    *os.File
	bw   *bufio.Writer

	dirty int // rows since last sync
}

// createJournal starts a fresh journal with its header line, creating the
// campaign directory. The header is flushed and synced before return so a
// submitted campaign is durable immediately.
func createJournal(path string, hdr journalHeader) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, bw: bufio.NewWriter(f)}
	if err := j.appendJSON(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// openJournal reopens an existing journal for appending (resume),
// first truncating it to validLen — the intact-prefix length reported
// by readJournal — so fresh appends never land after a torn tail
// (where they would be unreadable on the next recovery).
func openJournal(path string, validLen int64) (*Journal, error) {
	if err := os.Truncate(path, validLen); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{path: path, f: f, bw: bufio.NewWriter(f)}, nil
}

func (j *Journal) appendJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweepd: journal %s: %w", j.path, err)
	}
	if _, err := j.bw.Write(data); err != nil {
		return err
	}
	return j.bw.WriteByte('\n')
}

// AppendRow journals one completed job row together with its flight
// summary (r.Flight, nil without telemetry) as one line; the summary is
// lifted out of the row object. The line is flushed to the OS (surviving
// process death) and fsynced every journalSyncEvery rows.
func (j *Journal) AppendRow(r runner.JobResult) error {
	fl := r.Flight
	r.Flight = nil
	if err := j.appendJSON(journalLine{Row: &r, Flight: fl}); err != nil {
		return err
	}
	if err := j.bw.Flush(); err != nil {
		return err
	}
	j.dirty++
	if j.dirty >= journalSyncEvery {
		return j.Sync()
	}
	return nil
}

// AppendEvent journals a lifecycle event (terminal states), synced
// immediately.
func (j *Journal) AppendEvent(event, detail string) error {
	if err := j.appendJSON(journalLine{Event: event, Detail: detail}); err != nil {
		return err
	}
	return j.Sync()
}

// Sync flushes buffered lines and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	j.dirty = 0
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	serr := j.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// recovered is a journal read back from disk.
type recovered struct {
	header journalHeader
	// rows holds the journaled rows in append order, deduplicated by grid
	// index (first occurrence wins — re-executed rows are identical anyway).
	rows []runner.JobResult
	// flights holds the flight roll-ups of those rows, in the same order
	// (rows journaled without telemetry contribute none).
	flights []TelemetryRecord
	// event is the last terminal event seen ("" when the campaign was
	// interrupted mid-run and should resume).
	event  string
	detail string
	// torn reports whether a torn/corrupt tail was dropped during recovery.
	torn bool
	// validLen is the byte length of the intact journal prefix (every
	// decodable line including its newline); resume truncates to it before
	// appending so fresh rows never follow a torn tail.
	validLen int64
}

// errNoHeader marks a journal with no complete header line: a crash
// between createJournal's open and its header sync. Submit had not
// returned, so no client ever saw the campaign.
var errNoHeader = errors.New("no complete header line")

// readJournal recovers a campaign journal. A torn final line — a partial
// append with no terminating newline, or an undecodable tail — is
// dropped along with anything after it rather than failing recovery: the
// WAL's contract is that a prefix of it is always a valid campaign state.
func readJournal(path string) (*recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends in '\n', so the final split element is
	// empty; anything else is a torn tail and is ignored.
	torn := false
	if n := len(lines); n > 0 && len(lines[n-1]) != 0 {
		lines = lines[:n-1]
		torn = true
	} else if n > 0 {
		lines = lines[:n-1] // drop the empty terminator
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("sweepd: journal %s: %w", path, errNoHeader)
	}
	rec := &recovered{torn: torn}
	dec := json.NewDecoder(bytes.NewReader(lines[0]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec.header); err != nil {
		return nil, fmt.Errorf("sweepd: journal %s: bad header: %w", path, err)
	}
	if rec.header.V != journalVersion {
		return nil, fmt.Errorf("sweepd: journal %s: version %d, want %d", path, rec.header.V, journalVersion)
	}
	rec.validLen = int64(len(lines[0]) + 1)
	seen := make(map[int]bool)
	for i, line := range lines[1:] {
		var jl journalLine
		if err := json.Unmarshal(line, &jl); err != nil {
			// Undecodable interior line: treat everything from here on as a
			// torn tail. Rows before it are intact and resumable.
			rec.torn = true
			break
		}
		rec.validLen += int64(len(line) + 1)
		switch {
		case jl.Row != nil:
			// Row indexes are global grid indexes (they can exceed Total when
			// sharded); drop rows this campaign's shard does not own and
			// duplicates (re-executed rows are identical anyway).
			if jl.Row.Index < 0 || !rec.header.Shard.Owns(jl.Row.Index) || seen[jl.Row.Index] {
				continue
			}
			seen[jl.Row.Index] = true
			rec.rows = append(rec.rows, *jl.Row)
			if jl.Flight != nil {
				rec.flights = append(rec.flights, TelemetryRecord{Index: jl.Row.Index, Key: jl.Row.Key, Flight: jl.Flight})
			}
		case jl.Event != "":
			rec.event, rec.detail = jl.Event, jl.Detail
		default:
			return nil, fmt.Errorf("sweepd: journal %s: line %d is neither row nor event", path, i+2)
		}
	}
	return rec, nil
}

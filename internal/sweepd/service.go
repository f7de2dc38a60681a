package sweepd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"padc/internal/runner"
)

// ServiceOptions configures one Service.
type ServiceOptions struct {
	// DataDir holds one subdirectory per campaign (its journal). Required:
	// durability is the point of the service.
	DataDir string
	// Workers is the per-campaign default pool size when a submit does not
	// set one; 0 uses runner.DefaultWorkers().
	Workers int
	// StreamWindow overrides the per-subscriber buffered-row window
	// (default 256); a consumer further behind is disconnected.
	StreamWindow int
	// Resume controls whether interrupted campaigns found in DataDir are
	// re-run on startup. The server turns it on; tests that only want to
	// inspect recovered state can leave it off.
	Resume bool
	// Logger, when non-nil, receives structured service events (campaign
	// lifecycle at Info, per-job completions at Debug, HTTP access log via
	// the middleware) with campaign/job/request correlation attributes.
	// Nil discards everything.
	Logger *slog.Logger
}

// Service owns the campaign registry: submit, recover-and-resume,
// cancel, and the HTTP surface (Handler). One Service maps to one data
// directory; shards of the same spec live on different Services.
type Service struct {
	opts    ServiceOptions
	logger  *slog.Logger
	metrics *serviceMetrics

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // insertion order for stable listings
	closed    bool

	wg sync.WaitGroup
}

// NewService builds a Service over DataDir, recovering every journal
// found there. Campaigns with a terminal journal event are loaded in
// their final state; interrupted ones resume execution when
// opts.Resume is set (skipping journaled rows via the engine's Reuse
// hook) and otherwise stay pending.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("sweepd: DataDir is required")
	}
	if opts.StreamWindow <= 0 {
		opts.StreamWindow = defaultStreamWindow
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	s := &Service{
		opts:      opts,
		logger:    opts.Logger,
		metrics:   newServiceMetrics(),
		campaigns: make(map[string]*Campaign),
	}
	if err := s.recoverAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// newID draws a random 8-hex-digit campaign id.
func newID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "c" + hex.EncodeToString(b[:])
}

// Submit validates and journals a new campaign, then starts it. The
// returned campaign is already running.
func (s *Service) Submit(req SubmitRequest) (*Campaign, error) {
	if len(req.Spec) == 0 {
		return nil, fmt.Errorf("sweepd: submit carries no spec")
	}
	spec, err := runner.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	if err := req.Shard.Validate(); err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, j := range jobs {
		if req.Shard.Owns(j.Index) {
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("sweepd: shard %s owns no jobs of the %d-job grid", req.Shard, len(jobs))
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("sweepd: service is shut down")
	}
	s.mu.Unlock()

	id := newID()
	hdr := journalHeader{
		V: journalVersion, ID: id, Spec: spec, Shard: req.Shard,
		Total: total, Workers: req.Workers, Verify: req.Verify,
		Telemetry: req.Telemetry,
	}
	j, err := createJournal(filepath.Join(s.opts.DataDir, id, journalName), hdr)
	if err != nil {
		return nil, err
	}
	c := s.newCampaign(id, hdr)
	s.metrics.campaigns.With("submit").Inc()
	s.register(c)
	s.start(c, j, nil)
	s.logger.Info("campaign started",
		"campaign", id, "jobs", total, "shard", req.Shard.String(), "telemetry", req.Telemetry)
	return c, nil
}

// newCampaign builds the in-memory campaign shell shared by submit and
// recovery.
func (s *Service) newCampaign(id string, hdr journalHeader) *Campaign {
	workers := hdr.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	m := s.metrics.forCampaign(id)
	m.jobsTotal.Set(float64(hdr.Total))
	return &Campaign{
		ID:        id,
		spec:      hdr.Spec,
		shard:     hdr.Shard,
		workers:   workers,
		verify:    hdr.Verify,
		telemetry: hdr.Telemetry,
		total:     hdr.Total,
		dir:       filepath.Join(s.opts.DataDir, id),
		metrics:   m,
		doneIdx:   make(map[int]bool),
		subs:      make(map[*subscriber]bool),
		window:    s.opts.StreamWindow,
		done:      make(chan struct{}),
	}
}

func (s *Service) register(c *Campaign) {
	s.mu.Lock()
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	s.mu.Unlock()
}

// recoverAll scans DataDir for campaign journals and loads each one.
func (s *Service) recoverAll() error {
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			if _, err := os.Stat(filepath.Join(s.opts.DataDir, e.Name(), journalName)); err == nil {
				ids = append(ids, e.Name())
			}
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		err := s.recoverOne(id)
		if errors.Is(err, errNoHeader) {
			// A crash before the header synced: Submit never returned, so
			// no client knows the id. Leave the directory for inspection.
			s.logger.Warn("skipping campaign without a journal header", "campaign", id, "err", err)
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverOne loads one journal: terminal campaigns become browsable
// history (rows, artifact, state intact); interrupted ones resume.
func (s *Service) recoverOne(id string) error {
	path := filepath.Join(s.opts.DataDir, id, journalName)
	rec, err := readJournal(path)
	if err != nil {
		return err
	}
	if rec.header.ID != id {
		return fmt.Errorf("sweepd: journal %s: header id %q does not match directory", path, rec.header.ID)
	}
	c := s.newCampaign(id, rec.header)
	c.rows = append(c.rows, rec.rows...)
	c.journaled = len(rec.rows)
	for _, r := range rec.rows {
		c.doneIdx[r.Index] = true
		if r.Err != "" {
			c.failed++
		}
	}
	c.metrics.jobsDone.Add(float64(len(rec.rows)))
	c.metrics.jobsFailed.Add(float64(c.failed))
	s.metrics.campaigns.With("recover").Inc()
	s.register(c)

	switch rec.event {
	case "completed":
		c.state = StateCompleted
	case "cancelled":
		c.state = StateCancelled
	case "failed":
		c.state = StateFailed
		c.errMsg = rec.detail
	case "":
		// Interrupted mid-run: resume if configured, else hold at pending.
		if s.opts.Resume {
			j, err := openJournal(path, rec.validLen)
			if err != nil {
				return err
			}
			recovered := make(map[int]runner.JobResult, len(rec.rows))
			for _, r := range rec.rows {
				recovered[r.Index] = r
			}
			s.start(c, j, recovered)
			s.logger.Info("campaign resumed",
				"campaign", id, "journaled", len(rec.rows), "total", c.total, "torn", rec.torn)
			return nil
		}
	default:
		return fmt.Errorf("sweepd: journal %s: unknown terminal event %q", path, rec.event)
	}
	c.metrics.state.Set(float64(c.state))
	close(c.done)
	return nil
}

// start launches the campaign's run loop: a journal-writer goroutine fed
// by a bounded channel (the checkpoint window — a full window blocks the
// engine's Progress callback, backpressuring the worker pool onto the
// disk), and the engine itself. recovered maps grid index → journaled row
// for resumed campaigns; those rows replay through the Reuse hook so the
// engine merges them without re-executing, and the journal writer skips
// re-appending them.
func (s *Service) start(c *Campaign, j *Journal, recovered map[int]runner.JobResult) {
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.state = StateRunning
	c.metrics.state.Set(float64(StateRunning))

	type doneRow struct {
		row   runner.JobResult // carries its flight summary, if any, to the journal
		fresh bool             // false for journal-replayed rows
	}
	pending := make(chan doneRow, journalWindow)

	// Journal writer: the only goroutine that appends rows. Counts both
	// fresh (append + fsync policy) and replayed rows toward the durable
	// watermark.
	journalDone := make(chan error, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		durable := len(recovered)
		var firstErr error
		for dr := range pending {
			if dr.fresh {
				if err := j.AppendRow(dr.row); err != nil && firstErr == nil {
					firstErr = err
				}
				durable++
			}
			c.markJournaled(durable)
		}
		journalDone <- firstErr
	}()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(c.done)

		opts := runner.Options{
			Workers: c.workers,
			Verify:  c.verify,
			Shard:   c.shard,
			Flight:  c.telemetry,
			Start: func(runner.Job) {
				c.mu.Lock()
				c.running++
				c.mu.Unlock()
				c.metrics.jobsRunning.Add(1)
			},
			Progress: func(done, total int, r runner.JobResult) {
				// The flight summary goes to the journal line only, never the
				// in-memory rows, stream or artifacts: reused rows could not
				// reproduce it, so keeping it there would break resume
				// byte-identity.
				journaled := r
				r.Flight = nil
				fresh := true
				if recovered != nil {
					if _, ok := recovered[r.Index]; ok {
						fresh = false
					}
				}
				if fresh {
					c.mu.Lock()
					c.running--
					c.mu.Unlock()
					c.metrics.jobsRunning.Add(-1)
					c.appendRow(r)
					s.logger.Debug("job finished",
						"campaign", c.ID, "job", r.Index, "key", r.Key,
						"done", done, "total", total, "err", r.Err)
				} else {
					c.mu.Lock()
					c.reused++
					c.mu.Unlock()
					c.metrics.jobsReused.Inc()
				}
				// Blocks when the checkpoint window is full: bounded
				// completed-but-unjournaled rows by construction.
				pending <- doneRow{row: journaled, fresh: fresh}
			},
		}
		if recovered != nil {
			opts.Reuse = func(job runner.Job) (runner.JobResult, bool) {
				r, ok := recovered[job.Index]
				return r, ok
			}
		}

		_, runErr := runner.RunContext(ctx, c.spec, opts)
		close(pending)
		jerr := <-journalDone

		switch {
		case errors.Is(runErr, context.Canceled):
			// User cancel journals the terminal event (sticky across
			// restarts); service shutdown does not — an interrupted journal
			// is what resume looks for.
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			if closing {
				c.closeSubs()
				s.logger.Info("campaign interrupted by shutdown (resumable)", "campaign", c.ID)
			} else {
				_ = j.AppendEvent("cancelled", "")
				c.setState(StateCancelled, "")
				s.logger.Info("campaign cancelled", "campaign", c.ID)
			}
		case runErr != nil:
			_ = j.AppendEvent("failed", runErr.Error())
			c.setState(StateFailed, runErr.Error())
			s.logger.Error("campaign failed", "campaign", c.ID, "err", runErr)
		default:
			// Rows completed but a broken WAL, including a failed terminal
			// write, fails the campaign: completing would lie about
			// durability.
			if jerr == nil {
				jerr = j.AppendEvent("completed", "")
			}
			if err := j.Close(); jerr == nil {
				jerr = err
			}
			if jerr != nil {
				c.setState(StateFailed, "journal: "+jerr.Error())
				s.logger.Error("campaign journal error", "campaign", c.ID, "err", jerr)
			} else {
				c.setState(StateCompleted, "")
				s.logger.Info("campaign completed", "campaign", c.ID, "rows", c.total)
			}
			return
		}
		_ = j.Close()
	}()
}

// Campaign returns a campaign by id.
func (s *Service) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List returns every campaign's status in submission order.
func (s *Service) List() []CampaignInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Campaign(id); ok {
			out = append(out, c.Info())
		}
	}
	return out
}

// Cancel stops a running campaign; the cancellation is journaled, so it
// stays cancelled across restarts. Cancelling a terminal campaign is a
// no-op error.
func (s *Service) Cancel(id string) error {
	c, ok := s.Campaign(id)
	if !ok {
		return fmt.Errorf("sweepd: unknown campaign %q", id)
	}
	c.mu.Lock()
	terminal := c.terminalLocked()
	cancel := c.cancel
	c.mu.Unlock()
	if terminal || cancel == nil {
		return fmt.Errorf("sweepd: campaign %s is not running", id)
	}
	cancel()
	return nil
}

// Close shuts the service down gracefully: running campaigns are
// interrupted (in-flight jobs finish, journals stay terminal-event-free
// so a restarted server resumes them) and all goroutines drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var cancels []context.CancelFunc
	for _, c := range s.campaigns {
		c.mu.Lock()
		if c.cancel != nil && !c.terminalLocked() {
			cancels = append(cancels, c.cancel)
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	s.wg.Wait()
}

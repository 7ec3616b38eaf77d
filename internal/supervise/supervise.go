package supervise

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/randutil"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// Sentinel errors, testable with errors.Is.
var (
	// ErrDigestMismatch marks a deterministic regeneration that produced
	// different bytes than the journal's checkpoint records — the world
	// or toolchain changed out from under the campaign. Retrying cannot
	// help; the week is quarantined as permanent.
	ErrDigestMismatch = errors.New("supervise: regenerated capture digest differs from checkpointed digest")
	// ErrAnonKeyRequired marks an anonymized campaign whose damaged
	// week cannot be rewritten because the supervisor was not given the
	// anonymization key. Writing the week un-anonymized would silently
	// mix address spaces, so this is permanent.
	ErrAnonKeyRequired = errors.New("supervise: anonymized capture needs its key to rewrite a damaged week")
	// ErrQuarantineLimit aborts a campaign whose quarantined-week count
	// crossed Config.QuarantineLimit.
	ErrQuarantineLimit = errors.New("supervise: too many quarantined weeks")
	// ErrCorruptWrite marks a write whose read-back digest differs from
	// the bytes handed to the disk — a lying fsync (acknowledged, then
	// lost or mangled). Transient: rewriting draws fresh luck, and the
	// deterministic regeneration makes retries free of drift.
	ErrCorruptWrite = errors.New("supervise: read-back digest differs from written bytes")
)

// Class is the failure taxonomy driving the retry decision.
type Class int

// Classes.
const (
	// ClassTransient failures (deadline, loss budget under injected
	// faults, I/O) are retried with backoff until the week's budget is
	// exhausted.
	ClassTransient Class = iota
	// ClassPermanent failures (digest mismatch, anonymization key
	// mismatch, structurally bad containers) quarantine the week
	// immediately: re-running the same deterministic computation cannot
	// change the outcome.
	ClassPermanent
)

// String names the class for journal records.
func (c Class) String() string {
	if c == ClassPermanent {
		return "permanent"
	}
	return "transient"
}

// Classify maps an error to its retry class. Unknown errors default to
// transient — the breaker bounds how much retrying that can cost, while
// a wrong "permanent" would quarantine a recoverable week forever.
func Classify(err error) Class {
	switch {
	case errors.Is(err, ErrDigestMismatch),
		errors.Is(err, ErrAnonKeyRequired),
		errors.Is(err, capture.ErrAnonKeyMismatch),
		errors.Is(err, sflow.ErrBadMagic),
		errors.Is(err, snapshot.ErrBadMagic),
		errors.Is(err, snapshot.ErrFormat):
		return ClassPermanent
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, pipeline.ErrLossExceeded):
		return ClassTransient
	default:
		return ClassTransient
	}
}

// Config tunes the supervisor.
type Config struct {
	// Retries is the per-week attempt budget (per run); the week
	// quarantines after this many failed attempts. Minimum 1.
	Retries int
	// Backoff is the delay before the second attempt; it doubles per
	// attempt, capped at MaxBackoff, with deterministic jitter.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Watchdog, when positive, is the per-stage deadline: a stage that
	// has not returned within it is cancelled and counted against the
	// week's retry budget as a transient failure.
	Watchdog time.Duration
	// QuarantineLimit, when positive, aborts the campaign once more
	// than this many weeks are quarantined. Zero means any number of
	// quarantined weeks still yields a (degraded) campaign.
	QuarantineLimit int
	// RetryQuarantined re-opens weeks a previous run quarantined
	// instead of skipping them.
	RetryQuarantined bool
	// StorageFullBudget, when positive, bounds how many times one week
	// waits out a full disk before the condition starts counting against
	// the regular retry budget. Zero waits indefinitely (the disk-full
	// degraded mode: the campaign stalls with capped backoff until space
	// is freed or the context is cancelled, rather than quarantining
	// healthy weeks).
	StorageFullBudget int
	// Capture configures the capture stage (compression,
	// anonymization). Resume is implied by the journal and ignored.
	Capture capture.WriteOptions
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Retries < 1 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// Hooks are test and UI seams. All are optional.
type Hooks struct {
	// BeforeStage runs before each stage execution; returning an error
	// fails the stage with that error (fault injection for tests).
	BeforeStage func(week int, stage string, attempt int) error
	// AfterCheckpoint runs after each durable journal append for a
	// completed stage; returning an error aborts the campaign there
	// (crash injection for resume tests).
	AfterCheckpoint func(week int, stage string) error
	// OnWeek observes each week's terminal status in chronological
	// order; snap is nil for quarantined weeks.
	OnWeek func(ws WeekStatus, snap *snapshot.Snapshot)
}

// WeekStatus is one week's outcome in a Report.
type WeekStatus struct {
	Week     int
	Status   string // "done" | "quarantined"
	Attempts int
	// Resumed means the week was already complete and verified — no
	// stage ran.
	Resumed bool
	// Stage and Err describe the last failure (quarantined weeks).
	Stage string
	Err   error
	// CaptureFile/CaptureDigest/SnapshotDigest locate and pin the
	// week's artifacts.
	CaptureFile    string
	CaptureDigest  string
	SnapshotDigest string
}

// Report is a campaign run's outcome.
type Report struct {
	Weeks       []WeekStatus
	Completed   int
	Resumed     int
	Quarantined int
}

// QuarantinedWeeks lists the quarantined ISO weeks.
func (r *Report) QuarantinedWeeks() []int {
	var out []int
	for _, ws := range r.Weeks {
		if ws.Status == "quarantined" {
			out = append(out, ws.Week)
		}
	}
	return out
}

// Supervisor drives one campaign directory. It is not safe for
// concurrent use; one campaign directory must have at most one
// supervisor at a time.
type Supervisor struct {
	env   *pipeline.Env
	dir   string
	cfg   Config
	m     *Metrics
	Hooks Hooks

	journal *Journal
	man     *capture.Manifest
	// manChanged tracks whether man must be rewritten.
	manChanged bool
}

// New opens (or creates) the campaign directory's journal and manifest
// and returns a supervisor ready to Run. reg may be nil.
func New(env *pipeline.Env, dir string, cfg Config, reg *obs.Registry) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	cfg.Capture.Resume = false
	fsys := env.VFS()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash between a temp write and its rename strands atomic-writer
	// litter (`.manifest-*`, `.snap-*`); collect it before this run
	// creates more — on a tight disk the dead bytes matter.
	capture.SweepTemps(fsys, dir)
	man := capture.NewManifest(env, cfg.Capture)
	manChanged := true
	if old, err := capture.ReadManifestFS(fsys, dir); err == nil {
		if old.Anonymized && !cfg.Capture.Anonymize {
			// No key supplied for an anonymized campaign: inherit its
			// anonymization identity instead of planning a plaintext
			// rewrite over anonymized files. Existing weeks verify and
			// serve normally; a week that would need a rewrite fails the
			// capture stage with ErrAnonKeyRequired.
			man.Anonymized, man.AnonFP = true, old.AnonFP
		}
		if old.Anonymized && cfg.Capture.Anonymize && old.AnonFP != "" && old.AnonFP != man.AnonFP {
			return nil, fmt.Errorf("%w: manifest fingerprint %s, key fingerprint %s",
				capture.ErrAnonKeyMismatch, old.AnonFP, man.AnonFP)
		}
		if old.Compatible(man) {
			man, manChanged = old, false
		}
	}
	cfgDigest, err := ConfigDigest(man)
	if err != nil {
		return nil, err
	}
	j, err := OpenJournalFS(fsys, dir, cfgDigest)
	if err != nil {
		return nil, err
	}
	return &Supervisor{
		env:        env,
		dir:        dir,
		cfg:        cfg,
		m:          NewMetrics(reg),
		journal:    j,
		man:        man,
		manChanged: manChanged,
	}, nil
}

// Close releases the journal.
func (s *Supervisor) Close() error { return s.journal.Close() }

// State exposes the journal's replayed state (read-only use).
func (s *Supervisor) State() *State { return s.journal.State() }

// Run supervises every study week in order and returns the campaign
// report. Quarantined weeks do not fail the run — the report carries
// them — but a cancelled ctx or more than QuarantineLimit quarantines
// abort with an error. Re-running a completed campaign verifies digests
// and performs no stage work.
func (s *Supervisor) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := &s.man.Config
	rep := &Report{}
	s.m.breaker().Set(BreakerClosed)
	s.syncQuarantineGauge()
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		ws, snap, err := s.runWeek(ctx, wk)
		if err != nil {
			return rep, err
		}
		rep.Weeks = append(rep.Weeks, ws)
		switch ws.Status {
		case "done":
			rep.Completed++
			s.m.weeksDone().Inc()
			if ws.Resumed {
				rep.Resumed++
				s.m.weeksResumed().Inc()
			}
		case "quarantined":
			rep.Quarantined++
		}
		s.syncQuarantineGauge()
		if s.cfg.QuarantineLimit > 0 && rep.Quarantined > s.cfg.QuarantineLimit {
			return rep, fmt.Errorf("%w: %d quarantined, limit %d",
				ErrQuarantineLimit, rep.Quarantined, s.cfg.QuarantineLimit)
		}
		if s.Hooks.OnWeek != nil {
			s.Hooks.OnWeek(ws, snap)
		}
	}
	// A manifest that was unreadable (or missing) at open but whose
	// weeks all verified from journal checkpoints never passes through
	// the capture stage, so rewrite it here: the campaign must not end
	// with a corrupt manifest on disk vouched for by nothing.
	if s.manChanged {
		if err := capture.SaveManifestFS(s.fs(), s.dir, s.man); err != nil {
			return rep, err
		}
		s.manChanged = false
	}
	// The campaign is a verified no-op to rerun only if the journal on
	// disk says what this run acted on.
	if err := s.journal.verifyReadBack(); err != nil {
		return rep, err
	}
	return rep, nil
}

// syncQuarantineGauge reflects the journal's quarantine set into the
// gauge and the breaker state.
func (s *Supervisor) syncQuarantineGauge() {
	n := len(s.journal.State().QuarantinedWeeks())
	s.m.quarantined().Set(int64(n))
	if n > 0 {
		s.m.breaker().Set(BreakerOpen)
	} else {
		s.m.breaker().Set(BreakerClosed)
	}
}

// fs returns the campaign's filesystem seam.
func (s *Supervisor) fs() vfs.FS { return s.env.VFS() }

// paths

func (s *Supervisor) capturePath(wk int) string {
	return filepath.Join(s.dir, capture.WeekFile(wk))
}

func (s *Supervisor) snapshotPath(wk int) string {
	return filepath.Join(s.dir, snapshot.FileName(wk))
}

// runWeek drives one week through the state machine. The returned error
// aborts the whole campaign (context cancellation, journal I/O);
// per-week failures surface through the WeekStatus instead.
func (s *Supervisor) runWeek(ctx context.Context, wk int) (WeekStatus, *snapshot.Snapshot, error) {
	st := s.journal.State().week(wk)
	ws := WeekStatus{Week: wk, CaptureFile: capture.WeekFile(wk)}

	// Open breaker: the week stays a hole unless explicitly re-opened.
	if st.Quarantined && !s.cfg.RetryQuarantined {
		ws.Status = "quarantined"
		ws.Attempts = st.Attempts
		if st.LastErr != "" {
			ws.Err = errors.New(st.LastErr)
		}
		return ws, nil, nil
	}

	// Completed week: verify the checkpointed digests still describe
	// the bytes on disk; if they do, the rerun is a no-op.
	if st.Done {
		if snap, ok := s.verifyDone(wk, st); ok {
			s.syncManifestWeek(wk, st)
			ws.Status, ws.Resumed = "done", true
			ws.Attempts = st.Attempts
			ws.CaptureDigest = st.Capture.Digest
			ws.SnapshotDigest = st.DoneDigest
			return ws, snap, nil
		}
		// Something on disk no longer matches: fall through and re-run
		// the stages that fail verification (self-heal).
	}

	half := st.Quarantined && s.cfg.RetryQuarantined
	firstAttempt := st.Attempts + 1
	lastAttempt := st.Attempts + s.cfg.Retries
	fullWaits := 0
	for attempt := firstAttempt; attempt <= lastAttempt; {
		if err := ctx.Err(); err != nil {
			return ws, nil, err
		}
		if half {
			s.m.breaker().Set(BreakerHalfOpen)
		}
		if attempt > firstAttempt {
			s.m.retries().Inc()
			if err := s.backoff(ctx, wk, attempt); err != nil {
				return ws, nil, err
			}
		}
		if err := s.journal.Append(&Record{Event: EventStart, Week: wk, Attempt: attempt}); err != nil {
			// A full disk rejects even the start record. Wait it out in
			// place: the attempt has not begun, nothing is journaled, and
			// freeing space lets the same append retry cleanly.
			if vfs.IsStorageFull(err) && s.withinFullBudget(fullWaits) {
				fullWaits++
				if werr := s.storageFullWait(ctx, wk, fullWaits); werr != nil {
					return ws, nil, werr
				}
				continue
			}
			return ws, nil, err
		}
		snap, stage, ran, err := s.tryWeek(ctx, wk, attempt)
		if err == nil {
			ws.Status = "done"
			// A completion that executed no stage means every artifact
			// verified in place — the week was already done on disk and
			// only the journal's terminal record was missing (e.g. a
			// checkpoint lost to a torn write). That is a resume, not work.
			ws.Resumed = !ran
			ws.Attempts = attempt
			ws.CaptureDigest = st.Capture.Digest
			ws.SnapshotDigest = st.DoneDigest
			return ws, snap, nil
		}
		// Parent cancellation aborts the campaign without burning the
		// week's budget as if the work itself had failed.
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return ws, nil, err
		}
		// Degraded mode: a full disk is an operational condition, not a
		// defect in the week. Back off (capped) and retry the SAME
		// attempt without journaling a failure — the journal append would
		// need the very space that is missing — and without spending the
		// retry budget toward quarantine. This holds even when the
		// ENOSPC surfaced through a checkpoint append (normally a
		// campaign abort): the journal itself is intact, just unwritable
		// until space is freed.
		if vfs.IsStorageFull(err) && s.withinFullBudget(fullWaits) {
			fullWaits++
			ws.Stage, ws.Err = stage, err
			if werr := s.storageFullWait(ctx, wk, fullWaits); werr != nil {
				return ws, nil, werr
			}
			continue
		}
		var abort *abortError
		if errors.As(err, &abort) {
			return ws, nil, abort.err
		}
		class := Classify(err)
		if errors.Is(err, context.DeadlineExceeded) {
			s.m.watchdogFires().Inc()
		}
		if jerr := s.journal.Append(&Record{
			Event: EventFail, Week: wk, Stage: stage, Attempt: attempt,
			Class: class.String(), Err: err.Error(),
		}); jerr != nil {
			return ws, nil, jerr
		}
		ws.Stage, ws.Err, ws.Attempts = stage, err, attempt
		if class == ClassPermanent {
			break
		}
		attempt++
	}

	// Budget exhausted or permanent failure: trip the breaker.
	msg := ""
	if ws.Err != nil {
		msg = ws.Err.Error()
	}
	if err := s.journal.Append(&Record{Event: EventQuarantine, Week: wk, Err: msg}); err != nil {
		return ws, nil, err
	}
	ws.Status = "quarantined"
	return ws, nil, nil
}

// backoff sleeps the exponential, jittered delay before a retry. The
// jitter is deterministic in (world seed, week, attempt), so a re-run
// of the same campaign waits the same schedule.
func (s *Supervisor) backoff(ctx context.Context, wk, attempt int) error {
	d := s.cfg.Backoff << uint(attempt-2)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	// Jitter in [0.5, 1.0)×d keeps retries from synchronizing without
	// ever collapsing the delay to zero.
	u := randutil.HashUnit(uint64(s.man.Config.Seed), uint64(wk), uint64(attempt))
	d = d/2 + time.Duration(u*float64(d/2))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// withinFullBudget reports whether another storage-full wait is still
// allowed (unlimited when StorageFullBudget is zero).
func (s *Supervisor) withinFullBudget(waits int) bool {
	return s.cfg.StorageFullBudget <= 0 || waits < s.cfg.StorageFullBudget
}

// storageFullWait counts and sleeps one ENOSPC degraded-mode pause:
// exponential in the number of waits so far, capped at MaxBackoff, with
// the same deterministic jitter as retry backoff.
func (s *Supervisor) storageFullWait(ctx context.Context, wk, waits int) error {
	s.m.storageFull().Inc()
	shift := waits - 1
	if shift > 16 {
		shift = 16
	}
	d := s.cfg.Backoff << uint(shift)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	u := randutil.HashUnit(uint64(s.man.Config.Seed), uint64(wk), uint64(waits), 0xf0)
	d = d/2 + time.Duration(u*float64(d/2))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// stageCtx applies the watchdog deadline.
func (s *Supervisor) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Watchdog > 0 {
		return context.WithTimeout(ctx, s.cfg.Watchdog)
	}
	return context.WithCancel(ctx)
}

// runStage executes one stage under the watchdog, timing it and
// honouring the test hooks.
func (s *Supervisor) runStage(ctx context.Context, wk int, stage string, attempt int, fn func(context.Context) error) error {
	if s.Hooks.BeforeStage != nil {
		if err := s.Hooks.BeforeStage(wk, stage, attempt); err != nil {
			return err
		}
	}
	sctx, cancel := s.stageCtx(ctx)
	defer cancel()
	start := time.Now()
	err := fn(sctx)
	s.m.stageNanos().ObserveSince(start)
	var abort *abortError
	if err != nil && sctx.Err() != nil && ctx.Err() == nil && !errors.As(err, &abort) {
		// Attribute the failure to the watchdog, not whatever wrapped
		// form the stage surfaced it in.
		err = fmt.Errorf("supervise: %s stage watchdog (%v): %w", stage, s.cfg.Watchdog, context.DeadlineExceeded)
	}
	return err
}

// abortError marks an error that must abort the whole campaign rather
// than count against one week's retry budget: a broken journal (no
// checkpoint can be trusted past it) or the crash-injection hook.
type abortError struct{ err error }

func (a *abortError) Error() string { return "supervise: campaign abort: " + a.err.Error() }
func (a *abortError) Unwrap() error { return a.err }

// checkpoint appends a durable stage-done record and runs the crash
// hook. Failures here are campaign aborts, not week failures.
func (s *Supervisor) checkpoint(rec *Record) error {
	if err := s.journal.Append(rec); err != nil {
		return &abortError{err}
	}
	if s.Hooks.AfterCheckpoint != nil {
		if err := s.Hooks.AfterCheckpoint(rec.Week, rec.Stage); err != nil {
			return &abortError{err}
		}
	}
	return nil
}

// tryWeek runs one attempt of a week's stage sequence. ran reports
// whether any stage body actually executed, as opposed to every stage
// verifying its artifact already on disk.
//
// The analysis is the capture's verification: AnalyzeWeekSnapshot hashes
// the bytes it decodes, so whenever an analysis is due and a digest
// vouches for the file, the analysis runs first and is accepted only if
// it read exactly those bytes — one pass over the file instead of a
// hash and then a decode. Only a week whose snapshot checkpoint already
// pins the outcome has no analysis to ride on and pre-hashes the capture
// (as verifyDone does for a finished campaign).
func (s *Supervisor) tryWeek(ctx context.Context, wk, attempt int) (snap *snapshot.Snapshot, stage string, ran bool, err error) {
	st := s.journal.State().week(wk)

	existing, pinned := s.snapshotVerified(wk, st)
	want, datagrams := s.vouched(wk, st)
	var aerr error
	if !pinned && want != "" {
		ran = true
		snap, aerr = s.analyze(ctx, wk, attempt, st, want, datagrams)
		// A campaign abort (or cancel) is not a verdict on the file.
		var abort *abortError
		if aerr != nil && (errors.As(aerr, &abort) || ctx.Err() != nil) {
			return nil, StageAnalyze, ran, aerr
		}
	}

	// Stage 1: capture. An accepted analysis has just compared the
	// bytes, and one that read the file to EOF and found other bytes has
	// just shown it damaged. Otherwise (nothing vouched for the file, the
	// snapshot is already pinned, or the analysis failed before it could
	// tell) the file is hashed against the vouching digest. A missing or
	// damaged file is rewritten (deterministic regeneration) and must
	// reproduce the checkpointed bytes exactly.
	verified := snap != nil
	if !verified && !errors.Is(aerr, errOtherBytes) && s.captureMatches(wk, want) {
		if aerr != nil {
			// The file is intact, so the failure was the analysis's own.
			return nil, StageAnalyze, ran, aerr
		}
		verified = true
	}
	if verified {
		// The file is good even if the manifest is not (a fresh manifest
		// after a corrupt one starts empty): mirror the verified
		// checkpoint into it so the end-of-run rewrite is complete.
		s.syncManifestWeek(wk, st)
	} else {
		ran = true
		err := s.runStage(ctx, wk, StageCapture, attempt, func(sctx context.Context) error {
			if s.man.Anonymized && !s.cfg.Capture.Anonymize {
				return ErrAnonKeyRequired
			}
			n, digest, werr := capture.WriteWeekFile(sctx, s.env, wk, s.capturePath(wk), s.cfg.Capture)
			if werr != nil {
				return werr
			}
			if st.Capture.Done && st.Capture.Digest != "" && st.Capture.Digest != digest {
				return fmt.Errorf("%w: week %d: %s vs %s", ErrDigestMismatch, wk, digest, st.Capture.Digest)
			}
			// The digest above hashes the bytes handed to the disk, not
			// the bytes the disk kept. Read back before anything durable
			// vouches for the file: a lying fsync that mangled the capture
			// must fail the attempt here, not surface later as a
			// different-but-accepted analysis.
			got, derr := capture.FileDigestFS(s.fs(), s.capturePath(wk))
			if derr != nil {
				return derr
			}
			if got != digest {
				return fmt.Errorf("%w: week %d capture: wrote %s, disk holds %s",
					ErrCorruptWrite, wk, digest, got)
			}
			if s.man.SetWeek(wk, capture.WeekFile(wk), digest, n) {
				s.manChanged = true
			}
			if s.manChanged {
				if merr := capture.SaveManifestFS(s.fs(), s.dir, s.man); merr != nil {
					return merr
				}
				s.manChanged = false
			}
			return s.checkpoint(&Record{Event: EventDone, Week: wk, Stage: StageCapture, Digest: digest, Datagrams: n})
		})
		if err != nil {
			return nil, StageCapture, ran, err
		}
	}

	// Stage 2: analyze — here only if it did not already run above,
	// ahead of the capture check. Its product (the identification
	// result) lives in memory only, so it re-runs on resume unless the
	// week's snapshot already pins the outcome durably.
	if pinned {
		snap = existing
	} else {
		if snap == nil {
			ran = true
			snap, err = s.analyze(ctx, wk, attempt, st, st.Capture.Digest, st.Capture.Datagrams)
			if err != nil {
				return nil, StageAnalyze, ran, err
			}
		}

		// Stage 3: snapshot. The encoding is deterministic (sorted
		// servers, fixed layout), so the digest is reproducible across
		// runs — the property the crash-resume equivalence test pins.
		err = s.runStage(ctx, wk, StageSnapshot, attempt, func(sctx context.Context) error {
			intended, serr := snapshot.SaveFileFS(s.fs(), s.snapshotPath(wk), snap)
			if serr != nil {
				return serr
			}
			// Read-back: the checkpoint digest must describe the bytes on
			// disk AND those bytes must be the encoding we produced. A
			// lying fsync that corrupted the snapshot after the atomic
			// write fails here as transient, never as an accepted
			// artifact.
			digest, derr := capture.FileDigestFS(s.fs(), s.snapshotPath(wk))
			if derr != nil {
				return derr
			}
			if digest != intended {
				return fmt.Errorf("%w: week %d snapshot: wrote %s, disk holds %s",
					ErrCorruptWrite, wk, intended, digest)
			}
			return s.checkpoint(&Record{Event: EventDone, Week: wk, Stage: StageSnapshot, Digest: digest})
		})
		if err != nil {
			return nil, StageSnapshot, ran, err
		}
	}

	// Week done: one terminal record binding the snapshot digest.
	if err := s.checkpoint(&Record{Event: EventDone, Week: wk, Digest: st.Snapshot.Digest}); err != nil {
		return nil, "", ran, err
	}
	return snap, "", ran, nil
}

// vouched returns the digest (and datagram count) that vouches for wk's
// capture file: the journal's capture checkpoint, or — adoption — the
// manifest's entry for a week an unsupervised campaign (ixpgen) wrote.
// Adopting makes the supervisor a drop-in over existing campaign
// directories: no rewrite, and anonymized captures stay usable without
// their key. Empty when nothing vouches for the file.
func (s *Supervisor) vouched(wk int, st *WeekState) (digest string, datagrams int) {
	if st.Capture.Done {
		return st.Capture.Digest, st.Capture.Datagrams
	}
	i := s.man.WeekIndex(wk)
	if i < 0 || i >= len(s.man.Digests) || s.man.Files[i] != capture.WeekFile(wk) {
		return "", 0
	}
	if i < len(s.man.Datagrams) {
		datagrams = s.man.Datagrams[i]
	}
	return s.man.Digests[i], datagrams
}

// errOtherBytes marks an analysis that read its capture to EOF and
// hashed other bytes than the vouching digest describes: the file is
// damaged, and no second pass is needed to know it.
var errOtherBytes = errors.New("supervise: capture holds other bytes than its digest vouches for")

// analyze runs the analyze stage and accepts its snapshot only if the
// pass read exactly the bytes want (the vouching digest) describes; a
// snapshot is never checkpointed for capture bytes whose sha256 was not
// compared. On acceptance it writes the checkpoints in order: the
// capture checkpoint first when the week is being adopted (the manifest
// vouched, the journal does not know the file yet), then the analyze
// checkpoint.
func (s *Supervisor) analyze(ctx context.Context, wk, attempt int, st *WeekState, want string, datagrams int) (*snapshot.Snapshot, error) {
	var snap *snapshot.Snapshot
	err := s.runStage(ctx, wk, StageAnalyze, attempt, func(sctx context.Context) error {
		fresh, aerr := capture.AnalyzeWeekSnapshot(sctx, s.env, s.capturePath(wk), wk)
		if aerr != nil {
			return aerr
		}
		if got := fresh.SourceDigest; got != want {
			s.m.digestMismatch().Inc()
			if got == "" {
				return fmt.Errorf("supervise: week %d capture is truncated, expected %s", wk, want)
			}
			return fmt.Errorf("%w: week %d: expected %s, analysis read %s", errOtherBytes, wk, want, got)
		}
		if !st.Capture.Done {
			if err := s.checkpoint(&Record{Event: EventDone, Week: wk, Stage: StageCapture, Digest: want, Datagrams: datagrams}); err != nil {
				return err
			}
		}
		snap = fresh
		return s.checkpoint(&Record{Event: EventDone, Week: wk, Stage: StageAnalyze, Digest: want})
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// syncManifestWeek mirrors a digest-verified journal checkpoint into
// the in-memory manifest, so a manifest rebuilt after corruption is
// repopulated from the journal instead of saved empty.
func (s *Supervisor) syncManifestWeek(wk int, st *WeekState) {
	if st.Capture.Digest == "" {
		return
	}
	if s.man.SetWeek(wk, capture.WeekFile(wk), st.Capture.Digest, st.Capture.Datagrams) {
		s.manChanged = true
	}
}

// captureMatches reports, by hashing the file, whether wk's capture on
// disk still has the digest want (never true for an empty want).
func (s *Supervisor) captureMatches(wk int, want string) bool {
	if want == "" {
		return false
	}
	got, err := capture.FileDigestFS(s.fs(), s.capturePath(wk))
	return err == nil && got == want
}

// snapshotVerified loads wk's snapshot if the checkpoint says it is
// done, the file digest matches, it still derives from the current
// capture digest, AND it carries every product the current analyzer
// registry expects plus the attributes section. A snapshot this build
// cannot read (an older build's single-section container fails with
// snapshot.ErrBadMagic), one
// written under a narrower registry, or one from a build that wrote no
// attributes fails a check and is re-analyzed — the self-heal path that
// upgrades old campaign directories to snapshots the serving layer can
// answer from.
func (s *Supervisor) snapshotVerified(wk int, st *WeekState) (*snapshot.Snapshot, bool) {
	if !st.Snapshot.Done || st.Snapshot.Digest == "" {
		return nil, false
	}
	got, err := capture.FileDigestFS(s.fs(), s.snapshotPath(wk))
	if err != nil || got != st.Snapshot.Digest {
		return nil, false
	}
	snap, err := snapshot.LoadFileFS(s.fs(), s.snapshotPath(wk))
	if err != nil || snap.SourceDigest != st.Capture.Digest {
		return nil, false
	}
	for _, name := range append(s.env.Registry().Names(), analysis.NameAttributes) {
		if !snap.HasProduct(name) {
			return nil, false
		}
	}
	return snap, true
}

// verifyDone re-checks a done week's capture and snapshot digests.
func (s *Supervisor) verifyDone(wk int, st *WeekState) (*snapshot.Snapshot, bool) {
	if !st.Capture.Done || !s.captureMatches(wk, st.Capture.Digest) {
		return nil, false
	}
	snap, ok := s.snapshotVerified(wk, st)
	if !ok || st.DoneDigest != st.Snapshot.Digest {
		return nil, false
	}
	return snap, true
}

// Package supervise runs a capture→analyze→snapshot measurement
// campaign as a crash-safe supervised state machine. Each week moves
// pending → running → done | quarantined; progress is checkpointed to
// an append-only JSONL journal bound by content digests to the capture
// manifest and the snapshot files, so a kill -9 at any point resumes
// from the last completed stage and re-running a finished campaign is a
// verified no-op. Failures are classified transient (retried with
// exponential backoff and deterministic jitter, under an optional
// per-stage watchdog deadline) or permanent (the week is quarantined
// immediately); a per-week circuit breaker quarantines a week after its
// retry budget instead of failing the campaign, and downstream
// consumers (churn gaps, the serving layer's degraded health) carry the
// hole explicitly. A full disk is its own degraded mode: storage-full
// errors back off without consuming the retry budget, so a campaign
// stalls until space is freed instead of quarantining healthy weeks.
package supervise

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"ixplens/internal/capture"
	"ixplens/internal/vfs"
)

// JournalName is the checkpoint journal file inside a campaign
// directory.
const JournalName = "supervise.journal"

// Stage names, in pipeline order.
const (
	StageCapture  = "capture"
	StageAnalyze  = "analyze"
	StageSnapshot = "snapshot"
)

// Journal events.
const (
	// EventCampaign opens a journal: it pins the campaign's config
	// digest so a journal can never vouch for weeks generated under a
	// different world.
	EventCampaign = "campaign"
	// EventStart marks the beginning of one attempt at a week.
	EventStart = "start"
	// EventDone marks a completed stage (Stage set) or, with Stage
	// empty, a fully completed week; Digest binds the record to the
	// bytes on disk.
	EventDone = "done"
	// EventFail records one classified stage failure.
	EventFail = "fail"
	// EventQuarantine trips the week's circuit breaker.
	EventQuarantine = "quarantine"
)

// Record is one journal line. Fields are omitted when empty so the
// journal stays greppable and small.
type Record struct {
	Event     string `json:"event"`
	Week      int    `json:"week,omitempty"`
	Stage     string `json:"stage,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Digest    string `json:"digest,omitempty"`
	Datagrams int    `json:"datagrams,omitempty"`
	Class     string `json:"class,omitempty"`
	Err       string `json:"err,omitempty"`
	// Config is the campaign config digest (EventCampaign only).
	Config string `json:"config,omitempty"`
	// CRC is the crc32c (hex) of the record marshaled with CRC empty.
	// It catches silent corruption that still parses as JSON — a flipped
	// character inside a digest string would otherwise masquerade as a
	// mismatch and quarantine a healthy week permanently. Records
	// written before the field existed (no CRC) replay unchecked.
	CRC string `json:"crc,omitempty"`
}

// ErrJournalReadBack marks a journal whose bytes, read back after
// re-appending what the disk lost, still replay to a different state
// than the acknowledged records. Test with errors.Is.
var ErrJournalReadBack = errors.New("supervise: journal read-back differs from acknowledged records")

// castagnoli is the CRC32C table, matching the capture containers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum derives rec's CRC field value: the record is marshaled with
// CRC empty and summed. Marshal of this struct cannot fail.
func (rec *Record) checksum() string {
	c := *rec
	c.CRC = ""
	raw, _ := json.Marshal(&c)
	return fmt.Sprintf("%08x", crc32.Checksum(raw, castagnoli))
}

// verifies reports whether rec's stored CRC matches its content (or is
// absent — pre-CRC journals stay replayable).
func (rec *Record) verifies() bool {
	return rec.CRC == "" || rec.CRC == rec.checksum()
}

// StageState is the replayed durable state of one stage of one week.
type StageState struct {
	Done      bool
	Digest    string
	Datagrams int
}

// WeekState is the replayed state of one week.
type WeekState struct {
	Capture  StageState
	Analyze  StageState
	Snapshot StageState
	// Attempts counts attempts started so far (across runs).
	Attempts int
	// Quarantined means the week's breaker is open: no further attempts
	// unless the supervisor is told to retry quarantined weeks.
	Quarantined bool
	// LastErr / LastClass describe the most recent failure.
	LastErr   string
	LastClass string
	// Done means the whole week completed; DoneDigest is its snapshot
	// file digest at completion time.
	Done       bool
	DoneDigest string
}

// State is the full replayed journal state.
type State struct {
	ConfigDigest string
	Weeks        map[int]*WeekState
}

// week returns (creating) the state of one week.
func (s *State) week(wk int) *WeekState {
	ws := s.Weeks[wk]
	if ws == nil {
		ws = &WeekState{}
		s.Weeks[wk] = ws
	}
	return ws
}

// QuarantinedWeeks lists the quarantined weeks in ascending order.
func (s *State) QuarantinedWeeks() []int {
	if s == nil {
		return nil
	}
	var out []int
	for wk, ws := range s.Weeks {
		if ws.Quarantined {
			out = append(out, wk)
		}
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// apply folds one record into the state.
func (s *State) apply(rec *Record) {
	switch rec.Event {
	case EventCampaign:
		s.ConfigDigest = rec.Config
	case EventStart:
		ws := s.week(rec.Week)
		if rec.Attempt > ws.Attempts {
			ws.Attempts = rec.Attempt
		}
		// A logged start means a retry was authorized: the breaker
		// half-opens and the journal will record how it went.
		ws.Quarantined = false
	case EventDone:
		ws := s.week(rec.Week)
		st := StageState{Done: true, Digest: rec.Digest, Datagrams: rec.Datagrams}
		switch rec.Stage {
		case StageCapture:
			// A re-captured week invalidates anything derived from the
			// previous bytes.
			if ws.Capture.Digest != rec.Digest {
				ws.Analyze = StageState{}
				ws.Snapshot = StageState{}
				ws.Done, ws.DoneDigest = false, ""
			}
			ws.Capture = st
		case StageAnalyze:
			ws.Analyze = st
		case StageSnapshot:
			ws.Snapshot = st
		case "":
			ws.Done, ws.DoneDigest = true, rec.Digest
		}
	case EventFail:
		ws := s.week(rec.Week)
		if rec.Attempt > ws.Attempts {
			ws.Attempts = rec.Attempt
		}
		ws.LastErr, ws.LastClass = rec.Err, rec.Class
	case EventQuarantine:
		ws := s.week(rec.Week)
		ws.Quarantined = true
		if rec.Err != "" {
			ws.LastErr = rec.Err
		}
	}
}

// Journal is the append-only JSONL checkpoint log. Appends are a single
// write followed by an fsync, so every acknowledged record survives a
// crash; a torn final line (crash mid-append) is dropped on replay, a
// torn or corrupted record anywhere else is skipped by scan-forward
// resync (newline framing makes every later record recoverable), and a
// failed append is rolled back by truncating to the last acknowledged
// record so the file never carries a half-written line into the next
// write.
type Journal struct {
	fsys  vfs.FS
	f     vfs.File
	path  string
	state *State
	// size is the durable length after the last acknowledged append;
	// torn records that a failed append may have left partial bytes
	// beyond size that the next append must truncate away first.
	size int64
	torn bool
	// dropped counts records discarded by resync during open.
	dropped int
}

// journalPath returns dir's journal file path.
func journalPath(dir string) string { return filepath.Join(dir, JournalName) }

// replay parses a journal's bytes into records by scan-forward resync:
// a line that fails to parse or fails its CRC is dropped (counted in
// dropped) and scanning continues at the next newline, so one torn or
// bit-flipped record costs exactly that record, not the rest of the
// journal. Dropping is safe because the journal is a redo log over
// digest-verified files: a lost "done" is re-verified from disk, a lost
// "fail" costs one extra retry. Only a scanner-level error (a line
// beyond the size cap) makes the bytes untrustworthy as a whole.
func replay(raw []byte) (recs []*Record, dropped int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec := &Record{}
		if json.Unmarshal(line, rec) != nil || !rec.verifies() {
			dropped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, dropped, err
	}
	return recs, dropped, nil
}

// ReadState replays dir's journal without opening it for writing — the
// serving layer uses this to learn the quarantined-week list. A missing
// journal yields an empty state, not an error.
func ReadState(dir string) (*State, error) {
	return ReadStateFS(vfs.Default, dir)
}

// ReadStateFS is ReadState through an explicit filesystem seam.
func ReadStateFS(fsys vfs.FS, dir string) (*State, error) {
	st := &State{Weeks: make(map[int]*WeekState)}
	raw, err := vfs.ReadFile(fsys, journalPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := replay(raw)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		st.apply(rec)
	}
	return st, nil
}

// OpenJournalFS replays dir's journal through fsys and opens it for
// appending. Torn or corrupted records are dropped by scan-forward
// resync; a journal whose config digest does not match configDigest —
// or whose bytes defeat the scanner entirely — is rotated aside
// (".bad") and a fresh one is started: its checkpoints describe a
// different campaign and must not vouch for the files on disk.
func OpenJournalFS(fsys vfs.FS, dir, configDigest string) (*Journal, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := journalPath(dir)
	st := &State{Weeks: make(map[int]*WeekState)}
	raw, err := vfs.ReadFile(fsys, path)
	fresh := errors.Is(err, fs.ErrNotExist)
	if err != nil && !fresh {
		return nil, err
	}
	dropped := 0
	if !fresh {
		recs, drop, rerr := replay(raw)
		dropped = drop
		if rerr == nil {
			for _, rec := range recs {
				st.apply(rec)
			}
		}
		if rerr != nil || (st.ConfigDigest != "" && st.ConfigDigest != configDigest) {
			if err := fsys.Rename(path, path+".bad"); err != nil {
				return nil, err
			}
			if err := fsys.SyncDir(dir); err != nil {
				return nil, err
			}
			st = &State{Weeks: make(map[int]*WeekState)}
			dropped = 0
		} else if n := len(raw); n > 0 && raw[n-1] != '\n' {
			// Torn tail from a crash mid-append: the record was never
			// acknowledged, so cutting it is safe — and necessary,
			// because the next append must not glue onto the partial
			// line and corrupt itself.
			cut := 0
			if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
				cut = i + 1
			}
			if err := fsys.Truncate(path, int64(cut)); err != nil {
				return nil, err
			}
		}
	}
	f, err := fsys.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{fsys: fsys, f: f, path: path, state: st, size: fi.Size(), dropped: dropped}
	if st.ConfigDigest == "" {
		if err := j.Append(&Record{Event: EventCampaign, Config: configDigest}); err != nil {
			f.Close()
			return nil, err
		}
		// The campaign record also covers journal creation: fsync the
		// directory so the file itself survives power loss.
		if err := fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// State returns the journal's replayed (and live-updated) state.
func (j *Journal) State() *State { return j.state }

// Dropped reports how many corrupted or torn records replay discarded
// when the journal was opened.
func (j *Journal) Dropped() int { return j.dropped }

// Append writes one record (a single CRC-tagged line), fsyncs it, and
// folds it into the in-memory state. The write is O_APPEND, so
// concurrent appenders cannot interleave bytes. A failed write or sync
// is rolled back by truncating to the last acknowledged size; if even
// the rollback fails (full disk), the truncate is retried before the
// next append, and replay's resync drops the partial line if the
// process dies first. Either way the state machine only ever trusts
// acknowledged records.
func (j *Journal) Append(rec *Record) error {
	rec.CRC = rec.checksum()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if j.torn {
		if err := j.f.Truncate(j.size); err != nil {
			return fmt.Errorf("supervise: journal rollback: %w", err)
		}
		j.torn = false
	}
	n, werr := j.f.Write(line)
	if werr == nil && n < len(line) {
		werr = fmt.Errorf("supervise: journal short write %d of %d bytes", n, len(line))
	}
	if werr == nil {
		werr = j.f.Sync()
	}
	if werr != nil {
		// Unacknowledged bytes must not prefix the next record. Truncate
		// back; a rollback that itself fails leaves torn set so the next
		// append retries it.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.torn = true
		}
		return werr
	}
	j.size += int64(len(line))
	j.state.apply(rec)
	return nil
}

// verifyReadBack reads the journal back through its filesystem and
// compares the replayed state with the in-memory one the supervisor
// acted on. A lying fsync can flip a bit in a record that was already
// acknowledged; replay then drops it by CRC and the next open would
// redo work the campaign already finished. Whatever the disk lost is
// restated by appending records, and a second read-back that still
// disagrees is an error wrapping ErrJournalReadBack.
func (j *Journal) verifyReadBack() error {
	for pass := 0; ; pass++ {
		disk, err := ReadStateFS(j.fsys, filepath.Dir(j.path))
		if err != nil {
			return err
		}
		lost := j.state.restate(disk)
		if len(lost) == 0 {
			return nil
		}
		if pass > 0 {
			return fmt.Errorf("%w: %d records still differ", ErrJournalReadBack, len(lost))
		}
		for _, rec := range lost {
			if err := j.Append(rec); err != nil {
				return err
			}
		}
	}
}

// restate returns the records that, appended to a journal replaying to
// disk, make it replay to s: the campaign record if disk lost it, and
// for every week whose replayed state differs, that week's state in
// apply order. Applying them to s itself changes nothing.
func (s *State) restate(disk *State) []*Record {
	var recs []*Record
	if disk.ConfigDigest != s.ConfigDigest {
		recs = append(recs, &Record{Event: EventCampaign, Config: s.ConfigDigest})
	}
	var weeks []int
	for wk := range s.Weeks {
		weeks = append(weeks, wk)
	}
	for wk := range disk.Weeks {
		if s.Weeks[wk] == nil {
			weeks = append(weeks, wk)
		}
	}
	sortInts(weeks)
	var zero WeekState
	for _, wk := range weeks {
		want, have := s.Weeks[wk], disk.Weeks[wk]
		if want == nil {
			want = &zero
		}
		if have == nil {
			have = &zero
		}
		if *want == *have {
			continue
		}
		recs = append(recs, &Record{Event: EventStart, Week: wk, Attempt: want.Attempts})
		if want.LastErr != "" || want.LastClass != "" {
			recs = append(recs, &Record{Event: EventFail, Week: wk, Attempt: want.Attempts,
				Err: want.LastErr, Class: want.LastClass})
		}
		for _, st := range []struct {
			stage string
			StageState
		}{{StageCapture, want.Capture}, {StageAnalyze, want.Analyze}, {StageSnapshot, want.Snapshot}} {
			if st.Done {
				recs = append(recs, &Record{Event: EventDone, Week: wk, Stage: st.stage,
					Digest: st.Digest, Datagrams: st.Datagrams})
			}
		}
		if want.Done {
			recs = append(recs, &Record{Event: EventDone, Week: wk, Digest: want.DoneDigest})
		}
		if want.Quarantined {
			recs = append(recs, &Record{Event: EventQuarantine, Week: wk})
		}
	}
	return recs
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// ConfigDigest derives the campaign identity a journal is bound to: the
// manifest-compatibility key (config, traffic options, container
// format, compression, anonymization fingerprint) hashed to hex. Two
// campaigns with equal digests produce byte-identical capture files.
func ConfigDigest(man *capture.Manifest) (string, error) {
	key := struct {
		Config      any
		Options     any
		Format      int
		Compression bool
		Anonymized  bool
		AnonFP      string
	}{man.Config, man.Options, man.Format, man.Compression, man.Anonymized, man.AnonFP}
	raw, err := json.Marshal(key)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

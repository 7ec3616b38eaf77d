package supervise

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"syscall"
	"testing"

	"ixplens/internal/capture"
	"ixplens/internal/faultline"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// TestJournalReadBackRestoresLostRecords damages acknowledged records
// on disk — what a lying fsync does — and requires the read-back to
// restate them, so the reopened journal replays to the state the run
// acted on and a second read-back appends nothing.
func TestJournalReadBackRestoresLostRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range []*Record{
		{Event: EventStart, Week: 35, Attempt: 1},
		{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d-cap", Datagrams: 42},
		{Event: EventDone, Week: 35, Stage: StageAnalyze, Digest: "d-cap"},
		{Event: EventDone, Week: 35, Stage: StageSnapshot, Digest: "d-snap"},
		{Event: EventDone, Week: 35, Digest: "d-snap"},
		{Event: EventStart, Week: 36, Attempt: 2},
		{Event: EventFail, Week: 36, Attempt: 2, Class: "transient", Err: "boom"},
		{Event: EventQuarantine, Week: 36, Err: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := journalPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digest character in week 35's snapshot record and one in
	// week 36's failure: both fail their CRC on replay.
	for _, needle := range []string{`"stage":"snapshot","digest":"d-snap"`, `"err":"boom"`} {
		i := bytes.Index(raw, []byte(needle))
		if i < 0 {
			t.Fatalf("record %s not in journal", needle)
		}
		raw[i+len(needle)-2] ^= 0x20
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if disk, err := ReadStateFS(vfs.Default, dir); err != nil || reflect.DeepEqual(disk, j.State()) {
		t.Fatalf("damage did not change the replayed state (err %v)", err)
	}

	if err := j.verifyReadBack(); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadStateFS(vfs.Default, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(disk, j.State()) {
		t.Fatalf("read-back left the disk behind:\ndisk   %+v\nmemory %+v", disk.Weeks[36], j.State().Weeks[36])
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.verifyReadBack(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("a matching journal grew on read-back: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Event: EventStart, Week: 35, Attempt: 1},
		{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d-cap", Datagrams: 42},
		{Event: EventDone, Week: 35, Stage: StageAnalyze, Digest: "d-cap"},
		{Event: EventDone, Week: 35, Stage: StageSnapshot, Digest: "d-snap"},
		{Event: EventDone, Week: 35, Digest: "d-snap"},
		{Event: EventStart, Week: 36, Attempt: 1},
		{Event: EventFail, Week: 36, Stage: StageAnalyze, Attempt: 1, Class: "transient", Err: "boom"},
		{Event: EventQuarantine, Week: 36, Err: "boom"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.State()
	if st.ConfigDigest != "cfg-a" {
		t.Fatalf("config digest %q", st.ConfigDigest)
	}
	w35 := st.Weeks[35]
	if w35 == nil || !w35.Done || w35.DoneDigest != "d-snap" {
		t.Fatalf("week 35 state: %+v", w35)
	}
	if !w35.Capture.Done || w35.Capture.Digest != "d-cap" || w35.Capture.Datagrams != 42 {
		t.Fatalf("week 35 capture: %+v", w35.Capture)
	}
	if !w35.Snapshot.Done || w35.Snapshot.Digest != "d-snap" {
		t.Fatalf("week 35 snapshot: %+v", w35.Snapshot)
	}
	w36 := st.Weeks[36]
	if w36 == nil || !w36.Quarantined || w36.Attempts != 1 || w36.LastErr != "boom" {
		t.Fatalf("week 36 state: %+v", w36)
	}
	if got := st.QuarantinedWeeks(); len(got) != 1 || got[0] != 36 {
		t.Fatalf("quarantined = %v", got)
	}
}

// TestJournalRecaptureInvalidates: a capture-done record with a new
// digest must drop the stale analyze/snapshot/done checkpoints derived
// from the old bytes.
func TestJournalRecaptureInvalidates(t *testing.T) {
	st := &State{Weeks: make(map[int]*WeekState)}
	for _, rec := range []*Record{
		{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "old"},
		{Event: EventDone, Week: 35, Stage: StageSnapshot, Digest: "snap-old"},
		{Event: EventDone, Week: 35, Digest: "snap-old"},
		{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "new"},
	} {
		st.apply(rec)
	}
	ws := st.Weeks[35]
	if ws.Done || ws.Snapshot.Done {
		t.Fatalf("recapture did not invalidate: %+v", ws)
	}
	if ws.Capture.Digest != "new" {
		t.Fatalf("capture digest %q", ws.Capture.Digest)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay drops it and keeps everything before.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","week":36,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.State()
	if w := st.Weeks[35]; w == nil || !w.Capture.Done {
		t.Fatalf("intact prefix lost: %+v", w)
	}
	if st.Weeks[36] != nil {
		t.Fatal("torn tail replayed as a record")
	}
	// The torn bytes are cut on open, so an append after the crash must
	// survive yet another replay intact.
	if err := j2.Append(&Record{Event: EventDone, Week: 37, Stage: StageCapture, Digest: "d37"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if w := j3.State().Weeks[37]; w == nil || w.Capture.Digest != "d37" {
		t.Fatalf("append after torn tail lost: %+v", w)
	}
	if w := j3.State().Weeks[35]; w == nil || !w.Capture.Done {
		t.Fatal("original record lost after torn-tail recovery")
	}
}

// TestJournalCorruptMiddle: a torn or garbage record before the final
// line costs exactly that record — scan-forward resync drops it and
// keeps every intact record on both sides. The journal is NOT rotated
// aside: its newline framing makes everything after the damage
// recoverable, and the state machine re-verifies checkpoints against
// file digests anyway.
func TestJournalCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(&Record{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d"})
	j.Close()
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Garbage between the campaign record and week 35's checkpoint: a
	// mid-file torn write.
	if i := bytes.IndexByte(raw, '\n'); i >= 0 {
		raw = append(raw[:i+1], append([]byte("GARBAGE NOT JSON\n"), raw[i+1:]...)...)
	}
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if w := j2.State().Weeks[35]; w == nil || !w.Capture.Done || w.Capture.Digest != "d" {
		t.Fatalf("record after mid-file damage lost: %+v", w)
	}
	if got := j2.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if _, err := os.Stat(journalPath(dir) + ".bad"); err == nil {
		t.Fatal("recoverable journal was rotated aside wholesale")
	}
}

// TestJournalCorruptRecordCRC: corruption that still parses as JSON —
// a flipped character inside a digest — fails the record CRC and is
// dropped rather than trusted. Without the CRC this record would replay
// as a checkpoint with a wrong digest and permanently quarantine a
// healthy week via ErrDigestMismatch.
func TestJournalCorruptRecordCRC(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(&Record{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "aaaa"})
	j.Append(&Record{Event: EventDone, Week: 36, Stage: StageCapture, Digest: "bbbb"})
	j.Close()
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digest character in week 35's record; JSON stays valid.
	mut := bytes.Replace(raw, []byte(`"digest":"aaaa"`), []byte(`"digest":"aaab"`), 1)
	if bytes.Equal(mut, raw) {
		t.Fatal("test setup: digest not found in journal bytes")
	}
	if err := os.WriteFile(journalPath(dir), mut, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if w := j2.State().Weeks[35]; w != nil && w.Capture.Done {
		t.Fatalf("CRC-failing record trusted: %+v", w)
	}
	if w := j2.State().Weeks[36]; w == nil || w.Capture.Digest != "bbbb" {
		t.Fatalf("intact record lost: %+v", w)
	}
	if got := j2.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

// TestJournalAppendRollback: a failed append (write or fsync error)
// leaves the journal replayable from the last acknowledged record — the
// partial line is truncated away, and once the fault clears the next
// append lands cleanly.
func TestJournalAppendRollback(t *testing.T) {
	dir := t.TempDir()
	ffs := faultline.NewFS(vfs.OS{}, faultline.FSConfig{Seed: 11, SyncFail: 1})
	j, err := OpenJournalFS(vfs.OS{}, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Reopen through a seam whose every fsync fails: the append must
	// error out and must not leave half a record behind.
	jf, err := OpenJournalFS(ffs, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := jf.Append(&Record{Event: EventDone, Week: 36, Stage: StageCapture, Digest: "e"}); err == nil {
		t.Fatal("append over failing fsync reported success")
	}
	if w := jf.State().Weeks[36]; w != nil {
		t.Fatalf("unacknowledged record applied to state: %+v", w)
	}
	jf.Close()

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if w := j2.State().Weeks[35]; w == nil || !w.Capture.Done {
		t.Fatalf("acknowledged record lost after failed append: %+v", w)
	}
	if w := j2.State().Weeks[36]; w != nil {
		t.Fatalf("failed append replayed as a record: %+v", w)
	}
	if err := j2.Append(&Record{Event: EventDone, Week: 37, Stage: StageCapture, Digest: "f"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if w := j3.State().Weeks[37]; w == nil || w.Capture.Digest != "f" {
		t.Fatalf("append after recovery lost: %+v", w)
	}
}

// TestJournalConfigMismatch: a journal written for a different campaign
// config must not vouch for this one's files.
func TestJournalConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalFS(vfs.Default, dir, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(&Record{Event: EventDone, Week: 35, Stage: StageCapture, Digest: "d"})
	j.Close()

	j2, err := OpenJournalFS(vfs.Default, dir, "cfg-b")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.State().Weeks) != 0 {
		t.Fatal("journal for a different config was trusted")
	}
	if j2.State().ConfigDigest != "cfg-b" {
		t.Fatalf("fresh journal digest %q", j2.State().ConfigDigest)
	}
}

func TestReadStateMissing(t *testing.T) {
	st, err := ReadState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Weeks) != 0 || st.ConfigDigest != "" {
		t.Fatalf("missing journal state: %+v", st)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{context.DeadlineExceeded, ClassTransient},
		{pipeline.ErrLossExceeded, ClassTransient},
		{&fs.PathError{Op: "open", Path: "x", Err: errors.New("io")}, ClassTransient},
		{errors.New("unknown"), ClassTransient},
		// Storage faults are transient: the degraded mode handles ENOSPC
		// before classification, and even when the full-wait budget runs
		// out the condition must retry, never quarantine as permanent.
		{vfs.ErrStorageFull, ClassTransient},
		{&fs.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}, ClassTransient},
		{faultline.ErrInjectedIO, ClassTransient},
		{ErrCorruptWrite, ClassTransient},
		{ErrDigestMismatch, ClassPermanent},
		{ErrAnonKeyRequired, ClassPermanent},
		{capture.ErrAnonKeyMismatch, ClassPermanent},
		{sflow.ErrBadMagic, ClassPermanent},
		{snapshot.ErrBadMagic, ClassPermanent},
		{snapshot.ErrFormat, ClassPermanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
		// The classifier must see through wrapping.
		if got := Classify(errWrap(c.err)); got != c.want {
			t.Errorf("Classify(wrapped %v) = %v, want %v", c.err, got, c.want)
		}
	}
	if ClassTransient.String() != "transient" || ClassPermanent.String() != "permanent" {
		t.Fatal("class names wrong")
	}
}

func errWrap(err error) error { return &wrapErr{err} }

type wrapErr struct{ err error }

func (w *wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

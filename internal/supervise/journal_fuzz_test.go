package supervise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeJournal renders records one JSON line each, as Append writes
// them (the stored CRC is kept as it is).
func encodeJournal(t testing.TB, recs []*Record) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzJournalReplay checks replay on arbitrary bytes: it fails only
// with bufio.ErrTooLong, or it returns records that, re-encoded, replay
// to the same records with nothing dropped and re-encode to the same
// bytes. The golden fixture is a journal ixpmine wrote over a 17-week
// campaign, so it must come back byte for byte.
func FuzzJournalReplay(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", JournalName))
	if err != nil {
		f.Fatal(err)
	}
	recs, dropped, err := replay(golden)
	if err != nil || dropped != 0 {
		f.Fatalf("golden journal: %d dropped, %v", dropped, err)
	}
	if got := encodeJournal(f, recs); !bytes.Equal(got, golden) {
		f.Fatalf("golden journal re-encodes differently:\n%s", got)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-7]) // torn tail
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/2] ^= 0x04 // CRC-failing middle record
	f.Add(flipped)
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(bytes.Join([][]byte{lines[0], []byte("{\"event\":\n"), lines[1]}, nil))
	f.Add([]byte("\n\r\n{}\n"))
	f.Add([]byte(`{"event":"done","week":40,"digest":"pre-crc"}`))
	f.Add([]byte(`{"event":"quarantine","week":40,"err":"\ud800"}` + "\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, dropped, err := replay(raw)
		if err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if lines := bytes.Count(raw, []byte("\n")) + 1; len(recs)+dropped > lines {
			t.Fatalf("%d records + %d dropped from %d lines", len(recs), dropped, lines)
		}
		enc := encodeJournal(t, recs)
		back, dropped, err := replay(enc)
		if err != nil || dropped != 0 {
			t.Fatalf("re-encoded journal: %d dropped, %v", dropped, err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-encoded journal replays to different records")
		}
		if again := encodeJournal(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode drifted:\n got %s\nwant %s", again, enc)
		}
	})
}

package inputs_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ixplens/internal/capture"
	"ixplens/internal/inputs"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/traffic"
)

// ixpgenFile writes a Tiny campaign of the given weeks the way ixpgen
// does and returns its inputs file.
func ixpgenFile(tb testing.TB, weeks int) []byte {
	tb.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = weeks
	env, err := pipeline.NewEnv(cfg, traffic.Options{SamplesPerWeek: 600, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := capture.WriteCampaignOpts(context.Background(), env, dir, capture.WriteOptions{}); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, inputs.FileName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestInputsRoundTrip: a written file decodes to content that encodes
// back to the same bytes, and carries both weeks' answers.
func TestInputsRoundTrip(t *testing.T) {
	raw := ixpgenFile(t, 2)
	f, err := inputs.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Weeks) != 2 || len(f.Routes) == 0 || len(f.Members) == 0 || len(f.SOA) == 0 {
		t.Fatalf("decoded %d weeks, %d routes, %d members, %d SOA entries", len(f.Weeks), len(f.Routes), len(f.Members), len(f.SOA))
	}
	for _, w := range f.Weeks {
		if len(w.Crawl) == 0 || len(w.PTR) == 0 {
			t.Fatalf("week %d: %d crawl and %d PTR answers", w.ISOWeek, len(w.Crawl), len(w.PTR))
		}
	}
	again, err := inputs.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("re-encoding a decoded file changed its bytes")
	}
	if _, err := inputs.Read(raw); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeInputs: Decode accepts only canonical encodings — whatever
// it accepts re-encodes to the same bytes — and fails only with the
// typed errors; Read agrees with it and never panics. Each input is one
// section's payload, wrapped with valid checksums among the sections of
// an empty file, so the fuzzer reaches the section decoders instead of
// the container's CRCs; the seeds are the sections of a real ixpgen
// file.
func FuzzDecodeInputs(f *testing.F) {
	empty, err := inputs.Encode(&inputs.File{Weeks: []inputs.Week{{ISOWeek: 35}, {ISOWeek: 36}}})
	if err != nil {
		f.Fatal(err)
	}
	base, err := snapshot.Sections(empty)
	if err != nil {
		f.Fatal(err)
	}
	real, err := snapshot.Sections(ixpgenFile(f, 2))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range real {
		for i := range base {
			if base[i].Name == s.Name {
				f.Add(uint8(i), s.Payload)
			}
		}
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		secs := slices.Clone(base)
		secs[int(which)%len(secs)].Payload = payload
		data, err := snapshot.AppendSections(nil, secs)
		if err != nil {
			return
		}
		file, err := inputs.Decode(data)
		if err != nil {
			if !errors.Is(err, inputs.ErrFormat) && !errors.Is(err, inputs.ErrVersion) {
				t.Fatalf("untyped error %v", err)
			}
			if _, rerr := inputs.Read(data); rerr == nil {
				t.Fatal("Read accepted what Decode refused")
			}
			return
		}
		again, err := inputs.Encode(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("Decode accepted a non-canonical encoding")
		}
		if _, err := inputs.Read(data); err != nil && !errors.Is(err, inputs.ErrFormat) {
			t.Fatalf("Read: untyped error %v", err)
		}
	})
}

package capture

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustEncodeManifest(t testing.TB, man *Manifest) []byte {
	t.Helper()
	raw, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzReadManifest checks the manifest reader on arbitrary bytes: it
// returns an error wrapping ErrManifest, or a manifest whose stored
// encoding reads back to a manifest with the same encoding. The golden
// fixture is a manifest ixpgen wrote, so it must come back byte for
// byte.
func FuzzReadManifest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	man, err := decodeManifest(golden)
	if err != nil {
		f.Fatalf("golden manifest: %v", err)
	}
	if got := mustEncodeManifest(f, man); !bytes.Equal(got, golden) {
		f.Fatalf("golden manifest re-encodes differently:\n%s", got)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	for _, mutate := range []func(*Manifest){
		func(m *Manifest) { m.Digests = m.Digests[:1] },
		func(m *Manifest) { m.Datagrams = append(m.Datagrams, 7) },
		func(m *Manifest) { m.Files = m.Files[1:] },
		func(m *Manifest) { m.Digests, m.Datagrams = nil, nil },
		func(m *Manifest) { m.Anonymized, m.AnonFP, m.Compression = true, "c0ffee", true },
		func(m *Manifest) { m.Config.NumASes = 3 },
	} {
		bad := *man
		bad.Files = append([]string(nil), man.Files...)
		bad.Digests = append([]string(nil), man.Digests...)
		bad.Datagrams = append([]int(nil), man.Datagrams...)
		mutate(&bad)
		f.Add(mustEncodeManifest(f, &bad))
	}
	f.Add([]byte(`{"Config":{},"Options":{}}`))
	f.Add([]byte(`{"Digests":[]}`))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		man, err := decodeManifest(raw)
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		enc := mustEncodeManifest(t, man)
		back, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("stored encoding does not read back: %v\n%s", err, enc)
		}
		if again := mustEncodeManifest(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode drifted:\n got %s\nwant %s", again, enc)
		}
	})
}

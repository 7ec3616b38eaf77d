package capture

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

func smallEnv(t testing.TB) *pipeline.Env {
	t.Helper()
	cfg := netmodel.Tiny()
	cfg.Weeks = 3
	opts := traffic.Options{SamplesPerWeek: 3000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestCampaignRoundTrip(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	counts, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 {
		t.Fatalf("wrote %d weeks", len(counts))
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("week %d empty", i)
		}
	}

	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Weeks) != 3 || man.Weeks[0] != env.World.Cfg.FirstWeek {
		t.Fatalf("manifest weeks wrong: %v", man.Weeks)
	}
	env2, err := man.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(env2.World.Servers) != len(env.World.Servers) {
		t.Fatal("rebuilt world differs")
	}

	// Analysing the on-disk capture must agree with analysing the same
	// week in memory.
	snap, err := AnalyzeWeekSnapshot(context.Background(), env2, filepath.Join(dir, man.Files[0]), man.Weeks[0])
	if err != nil {
		t.Fatal(err)
	}
	res := snap.Result
	if snap.Counts.Total == 0 || len(res.Servers) == 0 {
		t.Fatal("file analysis empty")
	}
	mem, err := env.AnalyzeWeek(context.Background(), man.Weeks[0])
	if err != nil {
		t.Fatal(err)
	}
	memRes := mem.Servers
	if snap.Counts.Total != mem.Counts.Total {
		t.Fatalf("file analysis saw %d samples, in-memory %d", snap.Counts.Total, mem.Counts.Total)
	}
	if len(res.Servers) != len(memRes.Servers) {
		t.Fatalf("file analysis found %d servers, in-memory %d", len(res.Servers), len(memRes.Servers))
	}
	for ip := range memRes.Servers {
		if _, ok := res.Servers[ip]; !ok {
			t.Fatalf("server %v missing from file analysis", ip)
		}
	}
}

func TestReadManifestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("missing manifest must fail")
	}
	path := filepath.Join(dir, ManifestName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("corrupt manifest must fail")
	}
	if err := os.WriteFile(path, []byte(`{"Config":{},"Options":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestAnalyzeWeekSnapshotErrors(t *testing.T) {
	env := smallEnv(t)
	if _, err := AnalyzeWeekSnapshot(context.Background(), env, "/nonexistent/file.sflow", 35); err == nil {
		t.Fatal("missing file must fail")
	}
	// A non-capture file must fail the stream header check.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.sflow")
	if err := os.WriteFile(bad, []byte("garbage bytes here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeWeekSnapshot(context.Background(), env, bad, 35); err == nil {
		t.Fatal("bad magic must fail")
	}
}

// TestReadManifestRefusesOtherFormats: a manifest of any capture format
// but 2 — the v1 stream container's manifests carry none (0) — fails
// with ErrManifest, naming ixpgen as the way to regenerate the campaign.
func TestReadManifestRefusesOtherFormats(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	if _, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{0, 1, 3} {
		bad := *man
		bad.Format = format
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = ReadManifest(dir)
		if !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), "regenerate the campaign with ixpgen") {
			t.Fatalf("format %d: err = %v, want ErrManifest naming ixpgen", format, err)
		}
	}
}

func TestWeekFileNaming(t *testing.T) {
	if WeekFile(7) != "week-07.sflow" || WeekFile(45) != "week-45.sflow" {
		t.Fatal("week file names wrong")
	}
}

// TestReadManifestRejectsMisshapenArrays corrupts the parallel v2
// arrays: a manifest whose Digests or Datagrams disagree with Files in
// length must be rejected at read time (every consumer indexes them
// together), and a resume over such a directory must degrade to a clean
// rewrite instead of panicking.
func TestReadManifestRejectsMisshapenArrays(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	counts1, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func(*Manifest)) {
		t.Helper()
		bad := *man
		bad.Digests = append([]string(nil), man.Digests...)
		bad.Datagrams = append([]int(nil), man.Datagrams...)
		mutate(&bad)
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt(func(m *Manifest) { m.Digests = m.Digests[:1] })
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("short digests array must fail")
	}
	corrupt(func(m *Manifest) { m.Datagrams = append(m.Datagrams, 999) })
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("long datagrams array must fail")
	}
	corrupt(func(m *Manifest) { m.Digests, m.Datagrams = nil, nil })
	if _, err := ReadManifest(dir); !errors.Is(err, ErrManifest) {
		t.Fatalf("absent digests and datagrams: err = %v, want ErrManifest", err)
	}

	// Resume over the corrupted manifest: nothing to trust, so every
	// week is rewritten cleanly and the directory ends up valid again.
	corrupt(func(m *Manifest) { m.Digests = m.Digests[:1] })
	env2, err := man.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	counts2, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{Resume: true})
	if err != nil {
		t.Fatalf("resume over corrupted manifest: %v", err)
	}
	if !reflect.DeepEqual(counts1, counts2) {
		t.Fatalf("rewrite changed counts: %v vs %v", counts1, counts2)
	}
	if _, err := ReadManifest(dir); err != nil {
		t.Fatalf("directory still invalid after recovery rewrite: %v", err)
	}
}

// TestResumeRefusesAnonKeyMismatch pins the key-fingerprint guard: a
// resume whose anonymization key differs from the one the directory was
// written with must fail hard, because the kept weeks and the rewritten
// weeks would mix two incompatible address mappings.
func TestResumeRefusesAnonKeyMismatch(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	if _, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{Anonymize: true, AnonKey: 0xdeadbeef}); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.AnonFP == "" {
		t.Fatal("anonymized manifest carries no key fingerprint")
	}
	// The fingerprint must not be the probe itself (that would mean the
	// anonymizer leaked an identity mapping into the manifest).
	if man.AnonFP == fmt.Sprintf("%08x", uint32(anonProbe)) {
		t.Fatal("fingerprint equals the probe address")
	}

	env2, err := man.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	// Same key: resume verifies and keeps every week.
	if _, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{
		Resume: true, Anonymize: true, AnonKey: 0xdeadbeef,
	}); err != nil {
		t.Fatalf("same-key resume: %v", err)
	}
	// Different key: hard refusal, directory untouched.
	before, err := FileDigestFS(vfs.Default, filepath.Join(dir, man.Files[0]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{
		Resume: true, Anonymize: true, AnonKey: 0xfeedface,
	})
	if !errors.Is(err, ErrAnonKeyMismatch) {
		t.Fatalf("different-key resume returned %v, want ErrAnonKeyMismatch", err)
	}
	after, err := FileDigestFS(vfs.Default, filepath.Join(dir, man.Files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("refused resume still modified the campaign")
	}

	// A pre-fingerprint manifest (AnonFP absent) cannot vouch for its
	// key: resume falls back to a full rewrite rather than erroring or
	// trusting the old weeks.
	legacy := *man
	legacy.AnonFP = ""
	raw, err := json.Marshal(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCampaignOpts(context.Background(), env2, dir, WriteOptions{
		Resume: true, Anonymize: true, AnonKey: 0xfeedface,
	}); err != nil {
		t.Fatalf("legacy-manifest resume: %v", err)
	}
	rewritten, err := FileDigestFS(vfs.Default, filepath.Join(dir, man.Files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rewritten == before {
		t.Fatal("legacy-manifest resume kept weeks written under another key")
	}
	man2, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.AnonFP == "" || man2.AnonFP == man.AnonFP {
		t.Fatal("rewritten manifest does not carry the new key's fingerprint")
	}
}

// TestAnonymizedCampaign checks that an anonymized capture hides every
// real address while keeping the frames decodable — the filtering
// cascade still works, the RIB (keyed on real addresses) no longer
// resolves the endpoints.
func TestAnonymizedCampaign(t *testing.T) {
	env := smallEnv(t)
	dir := t.TempDir()
	if _, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{Anonymize: true, AnonKey: 0xdeadbeef}); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Anonymized {
		t.Fatal("manifest must record anonymization")
	}
	snap, err := AnalyzeWeekSnapshot(context.Background(), env, filepath.Join(dir, man.Files[0]), man.Weeks[0])
	if err != nil {
		t.Fatal(err)
	}
	res, counts := snap.Result, snap.Counts
	// The cascade is address-agnostic and must survive anonymization.
	if counts.Undecodable != 0 {
		t.Fatalf("%d undecodable frames after anonymization", counts.Undecodable)
	}
	if counts.PeeringShare() < 0.95 {
		t.Fatalf("peering share %.3f after anonymization", counts.PeeringShare())
	}
	// No identified server may carry a real server address: the
	// anonymizer has no fixed points on this world (checked below).
	real := 0
	for ip := range res.Servers {
		if _, ok := env.World.ServerByIP(ip); ok {
			real++
		}
	}
	if real > len(res.Servers)/100 {
		t.Fatalf("%d of %d identified servers still carry real addresses", real, len(res.Servers))
	}
	// Identification itself keeps working on anonymized data.
	if len(res.Servers) < 50 {
		t.Fatalf("only %d servers identified on anonymized capture", len(res.Servers))
	}
}

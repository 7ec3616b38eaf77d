// Package capture implements the on-disk measurement campaign format
// shared by cmd/ixpgen and cmd/ixpmine. A campaign directory holds one
// sFlow capture per weekly snapshot, the campaign's inputs file (package
// inputs: the RIB, geo DB, member ports and DNS zone data, and each
// week's crawl and PTR answers for the addresses its capture holds) and
// a JSON manifest recording the world configuration and the sha256
// digest of every capture and of the inputs file. Captures are in the
// checksummed v2 block container (see internal/sflow) and the manifest
// is Format 2; a campaign written before either must be regenerated
// with ixpgen. Digests are written as each week completes, so an
// interrupted campaign can resume: verified weeks are skipped, missing
// or damaged ones rewritten.
//
// Open is the miner's entry point: it reads the analysis half of the
// campaign's Env from the inputs file and leaves the world ungenerated
// until a capture must be rewritten. Manifest.Rebuild regenerates the
// whole world from the manifest's seed, for the tools that need the
// generator too.
package capture

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"ixplens/internal/anonymize"
	"ixplens/internal/core/dissect"
	"ixplens/internal/inputs"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// ManifestName is the manifest file inside a campaign directory.
const ManifestName = "manifest.json"

// Manifest ties a campaign directory to its generating configuration.
type Manifest struct {
	Config  netmodel.Config
	Options traffic.Options
	Weeks   []int
	Files   []string
	// Anonymized records that the capture's addresses went through the
	// prefix-preserving anonymizer (the key itself is never stored).
	Anonymized bool
	// AnonFP fingerprints the anonymization key without revealing it: the
	// hex form of a fixed probe address run through the anonymizer. Two
	// campaigns written with the same key carry the same fingerprint, so
	// a resume can refuse to silently mix addresses anonymized under
	// different keys. Recovering the key from one mapped address would
	// mean inverting the keyed prefix-preserving permutation.
	AnonFP string `json:",omitempty"`
	// Format is the capture container version, always 2 (block
	// captures); decodeManifest refuses any other.
	Format int `json:",omitempty"`
	// Compression records whether v2 blocks are DEFLATE-compressed.
	Compression bool `json:",omitempty"`
	// Digests holds the sha256 hex digest of each entry in Files,
	// parallel to it. A week whose file matches its digest was written
	// completely and has not been damaged since.
	Digests []string `json:",omitempty"`
	// Datagrams holds the per-week datagram counts, parallel to Files.
	Datagrams []int `json:",omitempty"`
	// Inputs names the campaign's inputs file (package inputs) and
	// InputsDigest holds its sha256 hex digest. Both are empty in a
	// campaign written before inputs files existed; Open then writes the
	// file and records them.
	Inputs       string `json:",omitempty"`
	InputsDigest string `json:",omitempty"`
}

// WeekFile returns the conventional capture file name for a week.
func WeekFile(isoWeek int) string {
	return fmt.Sprintf("week-%02d.sflow", isoWeek)
}

// ErrManifest marks manifest bytes that do not parse or do not describe
// a consistent campaign. Test with errors.Is.
var ErrManifest = errors.New("capture: malformed manifest")

// ErrAnonKeyMismatch marks a resume attempt whose anonymization key
// fingerprint differs from the manifest's. Test with errors.Is.
var ErrAnonKeyMismatch = errors.New("capture: resume with a different anonymization key")

// anonProbe is the fixed address whose anonymized form fingerprints a
// key (TEST-NET-2, never a world address).
var anonProbe = packet.MakeIPv4(198, 51, 100, 42)

// anonFingerprint derives a key's manifest fingerprint.
func anonFingerprint(anon *anonymize.PrefixPreserving) string {
	return fmt.Sprintf("%08x", uint32(anon.IPv4(anonProbe)))
}

// WriteOptions configures a campaign write.
type WriteOptions struct {
	// Compress enables per-block DEFLATE compression in the container.
	Compress bool
	// Resume skips weeks whose existing files verify against the
	// directory's manifest digests (same config, options and format) and
	// rewrites the rest — picking up where an interrupted campaign died.
	// Resuming an anonymized campaign with a different AnonKey fails
	// with ErrAnonKeyMismatch: the kept weeks and the rewritten ones
	// would otherwise mix two incompatible address mappings in one
	// directory. (Pre-fingerprint manifests lack the marker; they are
	// rewritten from scratch rather than trusted.)
	Resume bool
	// Anonymize applies prefix-preserving address anonymization with
	// AnonKey to every sampled frame.
	Anonymize bool
	AnonKey   uint64
}

// WriteCampaignOpts renders every study week of env into dir and writes
// the manifest. It returns the per-week datagram counts. The manifest is
// rewritten after every completed week, so a crash part-way leaves a
// directory a Resume run can pick up. Cancelling ctx aborts mid-week
// within one datagram flush; env.Faults, when active, degrades the
// written streams exactly as it would a live capture.
func WriteCampaignOpts(ctx context.Context, env *pipeline.Env, dir string, opts WriteOptions) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fsys := env.VFS()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash between a temp write and its rename strands `.manifest-*`
	// litter; collect it before this run creates more.
	SweepTemps(fsys, dir)
	cfg := &env.Config
	man := NewManifest(env, opts)
	var prev *Manifest
	if opts.Resume {
		if old, err := ReadManifestFS(fsys, dir); err == nil {
			// Mixing keys is a hard error, not a silent rewrite: the caller
			// believes the old weeks are compatible with the new ones.
			if old.Anonymized && opts.Anonymize && old.AnonFP != "" && old.AnonFP != man.AnonFP {
				return nil, fmt.Errorf("%w: manifest fingerprint %s, key fingerprint %s",
					ErrAnonKeyMismatch, old.AnonFP, man.AnonFP)
			}
			if old.Compatible(man) {
				prev = old
			}
		}
	}
	var anon *anonymize.PrefixPreserving
	if opts.Anonymize {
		anon = anonymize.New(opts.AnonKey)
	}
	rec, err := inputs.NewRecorder(env, fsys, dir)
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	var counts []int
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		name := WeekFile(wk)
		path := filepath.Join(dir, name)
		tap := inputs.NewTap(wk)
		n, digest, reused := reuseWeek(fsys, prev, wk, name, path)
		if reused {
			got, err := tapCapture(fsys, path, tap)
			if err == nil && got != digest {
				err = fmt.Errorf("changed since it verified")
			}
			if err != nil {
				return counts, fmt.Errorf("capture: week %d: reading its addresses: %w", wk, err)
			}
		} else {
			var err error
			n, digest, err = writeWeek(ctx, env, wk, path, anon, opts.Compress, tap.Observe)
			if err != nil {
				return counts, fmt.Errorf("capture: week %d: %w", wk, err)
			}
		}
		rec.Record(tap)
		counts = append(counts, n)
		man.SetWeek(wk, name, digest, n)
		if err := SaveManifestFS(fsys, dir, man); err != nil {
			return counts, err
		}
	}
	raw, err := rec.Encode()
	if err != nil {
		return counts, err
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, inputs.FileName), raw, ".snap-*"); err != nil {
		return counts, err
	}
	man.Inputs, man.InputsDigest = inputs.FileName, digestOf(raw)
	return counts, SaveManifestFS(fsys, dir, man)
}

// digestOf is the sha256 hex digest of raw.
func digestOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// NewManifest builds the manifest skeleton a campaign write (or the
// supervisor's per-week capture stage) fills in with SetWeek.
func NewManifest(env *pipeline.Env, opts WriteOptions) *Manifest {
	man := &Manifest{
		Config:      env.Config,
		Options:     env.Opts,
		Anonymized:  opts.Anonymize,
		Format:      2,
		Compression: opts.Compress,
	}
	if opts.Anonymize {
		man.AnonFP = anonFingerprint(anonymize.New(opts.AnonKey))
	}
	return man
}

// WeekIndex returns wk's position in the manifest, or -1.
func (m *Manifest) WeekIndex(wk int) int {
	for i, w := range m.Weeks {
		if w == wk {
			return i
		}
	}
	return -1
}

// SetWeek upserts one week's entry, keeping the parallel arrays aligned
// and the weeks in ascending (chronological) order. It reports whether
// the manifest actually changed, so callers can skip redundant rewrites.
func (m *Manifest) SetWeek(wk int, file, digest string, datagrams int) bool {
	if i := m.WeekIndex(wk); i >= 0 {
		if m.Files[i] == file && m.Digests[i] == digest && m.Datagrams[i] == datagrams {
			return false
		}
		m.Files[i], m.Digests[i], m.Datagrams[i] = file, digest, datagrams
		return true
	}
	at := len(m.Weeks)
	for i, w := range m.Weeks {
		if wk < w {
			at = i
			break
		}
	}
	insert := func() {
		m.Weeks = append(m.Weeks, 0)
		copy(m.Weeks[at+1:], m.Weeks[at:])
		m.Weeks[at] = wk
	}
	insert()
	m.Files = append(m.Files, "")
	copy(m.Files[at+1:], m.Files[at:])
	m.Files[at] = file
	m.Digests = append(m.Digests, "")
	copy(m.Digests[at+1:], m.Digests[at:])
	m.Digests[at] = digest
	m.Datagrams = append(m.Datagrams, 0)
	copy(m.Datagrams[at+1:], m.Datagrams[at:])
	m.Datagrams[at] = datagrams
	return true
}

// SaveManifestFS writes dir's manifest atomically through fsys (temp
// file, fsync, rename, parent-directory fsync).
func SaveManifestFS(fsys vfs.FS, dir string, man *Manifest) error {
	return writeManifest(fsys, filepath.Join(dir, ManifestName), man)
}

// SweepTemps removes stale atomic-writer litter (`.manifest-*` and
// `.snap-*` temp files) a crashed run left in dir. Litter is harmless
// to correctness — renames are all-or-nothing — but it accumulates
// forever on a box that crashes often, and on a quota-tight disk the
// dead bytes are the difference between recovering and ENOSPC. Best
// effort: the count of removed files is returned, errors are not.
func SweepTemps(fsys vfs.FS, dir string) int {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !isTempLitter(name) {
			continue
		}
		if fsys.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// isTempLitter recognizes the temp-file patterns the repo's atomic
// writers use (manifest, snapshot, journal rotation scratch).
func isTempLitter(name string) bool {
	for _, prefix := range []string{".manifest-", ".snap-", ".journal-"} {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// Compatible reports whether an existing manifest m describes the
// same campaign next would produce, so m's digests can vouch for weeks
// already on disk. Config and Options are compared through their JSON
// form — the same encoding the manifest stores.
func (m *Manifest) Compatible(next *Manifest) bool {
	if m.Format != next.Format ||
		m.Compression != next.Compression ||
		m.Anonymized != next.Anonymized ||
		m.AnonFP != next.AnonFP {
		return false
	}
	oc, err1 := json.Marshal(m.Config)
	nc, err2 := json.Marshal(next.Config)
	oo, err3 := json.Marshal(m.Options)
	no, err4 := json.Marshal(next.Options)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return false
	}
	return string(oc) == string(nc) && string(oo) == string(no)
}

// reuseWeek reports whether the file for wk can be kept as-is: the prior
// manifest lists it and the bytes on disk still match its digest.
func reuseWeek(fsys vfs.FS, prev *Manifest, wk int, name, path string) (n int, digest string, ok bool) {
	if prev == nil {
		return 0, "", false
	}
	for i, w := range prev.Weeks {
		if w != wk || prev.Files[i] != name {
			continue
		}
		got, err := FileDigestFS(fsys, path)
		if err != nil || got != prev.Digests[i] {
			return 0, "", false
		}
		return prev.Datagrams[i], got, true
	}
	return 0, "", false
}

// FileDigestFS returns the sha256 hex digest of a file's contents, read
// through fsys — the same digest the manifest records per week.
func FileDigestFS(fsys vfs.FS, path string) (string, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteWeekFile renders one study week of env into path and returns the
// datagram count and content digest. It is the single-week unit
// WriteCampaignOpts (and the supervisor's capture stage) are built on;
// opts.Resume is ignored here — skipping verified weeks is the caller's
// decision.
func WriteWeekFile(ctx context.Context, env *pipeline.Env, isoWeek int, path string, opts WriteOptions) (int, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var anon *anonymize.PrefixPreserving
	if opts.Anonymize {
		anon = anonymize.New(opts.AnonKey)
	}
	return writeWeek(ctx, env, isoWeek, path, anon, opts.Compress, nil)
}

// writeWeek is WriteWeekFile with the anonymizer built; tap, when not
// nil, sees every datagram as it is written, after anonymization.
func writeWeek(ctx context.Context, env *pipeline.Env, isoWeek int, path string, anon *anonymize.PrefixPreserving, compress bool, tap func(*sflow.Datagram)) (int, string, error) {
	fsys := env.VFS()
	f, err := fsys.Create(path)
	if err != nil {
		return 0, "", err
	}
	h := sha256.New()
	sw, err := sflow.NewBlockWriter(io.MultiWriter(f, h), compress)
	if err != nil {
		f.Close()
		return 0, "", err
	}
	// fail closes best-effort on the error path; the file is incomplete
	// either way and a resume will rewrite it.
	fail := func(e error) (int, string, error) {
		f.Close()
		return sw.Count(), "", e
	}
	// The generation sink puts the week's fault injector in front of
	// the anonymizer: the injector corrupts the wire stream, the
	// anonymizer is part of the trusted collector. Both the writer
	// (serializes) and the anonymizer (rewrites in place and forwards)
	// consume each datagram within the call.
	sink := sw.WriteDatagram
	if tap != nil {
		sink = func(d *sflow.Datagram) error {
			tap(d)
			return sw.WriteDatagram(d)
		}
	}
	if anon != nil {
		sink = anon.Datagrams(sink)
	}
	if _, err := env.EachDatagram(ctx, isoWeek, sink); err != nil {
		return fail(err)
	}
	if err := sw.Close(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// Close is checked, not deferred: on a full disk the close itself can
	// surface the write-back failure, and a digest for a half-written
	// file must never reach the manifest.
	if err := f.Close(); err != nil {
		return sw.Count(), "", err
	}
	// The capture is created in place (not temp-then-rename: week files
	// are large and their digest gates acceptance anyway), so durability
	// of the directory entry still needs the parent fsync.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return sw.Count(), "", err
	}
	// The digest is of the bytes handed to the writer, not the bytes the
	// disk kept — a lying fsync can diverge the two. Callers that accept
	// this digest durably (the supervisor) re-verify it by read-back.
	return sw.Count(), hex.EncodeToString(h.Sum(nil)), nil
}

// writeManifest writes the manifest atomically through the seam's
// crash-consistent writer: temp file, write, fsync, close (all checked
// — a full disk must not leave a truncated manifest that parses as
// complete), rename into place, then fsync the parent directory so the
// rename itself survives power loss. Failed writes remove their temp.
func writeManifest(fsys vfs.FS, path string, man *Manifest) error {
	raw, err := encodeManifest(man)
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, path, raw, ".manifest-*")
}

// encodeManifest renders the manifest as it is stored: indented JSON.
func encodeManifest(man *Manifest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadManifest loads and validates a campaign manifest.
func ReadManifest(dir string) (*Manifest, error) {
	return ReadManifestFS(vfs.Default, dir)
}

// ReadManifestFS is ReadManifest through an explicit filesystem seam.
func ReadManifestFS(fsys vfs.FS, dir string) (*Manifest, error) {
	raw, err := vfs.ReadFile(fsys, filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(raw)
}

// decodeManifest parses and validates a manifest's bytes.
func decodeManifest(raw []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	if err := man.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: config: %w", ErrManifest, err)
	}
	if len(man.Weeks) != len(man.Files) {
		return nil, fmt.Errorf("%w: weeks/files mismatch: %d vs %d",
			ErrManifest, len(man.Weeks), len(man.Files))
	}
	if man.Format != 2 {
		return nil, fmt.Errorf("%w: capture format %d, this build reads only format 2: regenerate the campaign with ixpgen",
			ErrManifest, man.Format)
	}
	// Digests and Datagrams are parallel to Files. A manifest violating
	// that shape (hand-edited, or damaged in a way that still parses)
	// would index out of bounds in every consumer that walks the arrays
	// together, so it is rejected here once — resume degrades to a clean
	// rewrite, analysis tools fail with a diagnosis instead of a panic.
	if n := len(man.Digests); n != len(man.Files) {
		return nil, fmt.Errorf("%w: digests/files mismatch: %d vs %d",
			ErrManifest, n, len(man.Files))
	}
	if n := len(man.Datagrams); n != len(man.Files) {
		return nil, fmt.Errorf("%w: datagrams/files mismatch: %d vs %d",
			ErrManifest, n, len(man.Files))
	}
	return &man, nil
}

// Rebuild reconstructs the measurement substrates the campaign was
// generated against (the world regenerates deterministically).
func (m *Manifest) Rebuild() (*pipeline.Env, error) {
	return pipeline.NewEnv(m.Config, m.Options)
}

// AnalyzeWeekSnapshot dissects one capture file through every analyzer
// in env's registry — identification, visibility, link flows — in a
// SINGLE pass, spreading classification over a worker pool; each worker
// feeds its own per-analyzer shard and the deterministic shard merges
// inside Finish keep results identical to a sequential pass. The capture
// is decoded by the pipelined block reader, removing the serial read
// bottleneck. The returned snapshot carries every analyzer's product.
//
// The pass is also the file's digest check: every byte is hashed as it
// is read, and SourceDigest is the sha256 of the bytes this analysis
// actually saw — the same value FileDigestFS computes — so a caller
// holding an expected digest compares instead of hashing the file
// first. It is left empty for a truncated capture — cut mid-structure,
// or a file that ends without its footer — since not every byte was
// there to read.
//
// Damage degrades instead of failing: a crash-truncated capture yields
// everything decoded before the cut, and blocks whose
// checksum does not verify are quarantined and counted. Both surface
// through the result's EstLoss annotation — quarantined and truncated
// datagrams reappear to the sequence tracker as gaps — and through the
// capture metrics in env.M. Structural corruption (damaged framing
// without a trusted index) still fails, and a file that is not a block
// container — a v1 capture included — fails with sflow.ErrBadMagic. ctx
// cancels the pass within one datagram batch.
func AnalyzeWeekSnapshot(ctx context.Context, env *pipeline.Env, path string, isoWeek int) (*snapshot.Snapshot, error) {
	f, err := env.VFS().Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The driver's default pool leaves one core to the reader side —
	// the block reader's producer, which reads and hashes the file.
	// Always the pipelined reader, even at one worker: its producer
	// (read + sha256) and decode worker (CRC32C + inflate + decode)
	// overlap classify/observe, which at one worker stays on this
	// goroutine.
	workers := dissect.DefaultWorkers()
	pr, err := sflow.NewParallelBlockReader(f, workers)
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	// The file's end is accounted before the week is finished, so a
	// week that then fails its loss budget still shows its quarantined
	// blocks.
	var st sflow.BlockStats
	prods, counts, err := env.AnalyzeFeed(ctx, isoWeek, workers, func(emit func(*sflow.Datagram) error) error {
		var d sflow.Datagram
		for {
			err := pr.Next(&d)
			if err == io.EOF || errors.Is(err, sflow.ErrTruncated) {
				// A crash-truncated capture ends the week at the cut; its
				// missing tail reads as sequence gaps.
				st = pr.Stats()
				st.Truncated = st.Truncated || err != io.EOF
				env.M.ObserveCapture(st)
				return nil
			}
			if err != nil {
				return err
			}
			if err := emit(&d); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.FromProducts(prods, counts)
	if err != nil {
		return nil, err
	}
	if !st.Truncated {
		snap.SourceDigest = pr.Digest()
	}
	return snap, nil
}

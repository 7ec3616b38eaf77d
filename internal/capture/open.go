package capture

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"ixplens/internal/inputs"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/vfs"
)

// ErrInputsDigest marks a regenerated inputs file whose digest differs
// from the one the manifest records: the world or the toolchain changed
// since the campaign was written, or a week whose capture no longer
// verifies cannot be regenerated as it was written (a fault-injected or
// anonymized campaign). Test with errors.Is.
var ErrInputsDigest = errors.New("capture: regenerated inputs file differs from its manifest digest")

// errOutdated marks an inputs file its manifest digest vouches for that
// this build cannot read: it predates the build, and is replaced.
var errOutdated = errors.New("capture: inputs file predates this build")

// Open reads the campaign in dir for mining: its manifest, and an Env
// whose analysis half is the campaign's inputs file. The Env's
// generator half is left unbuilt; it is built on first use, which only
// rewriting a missing or damaged capture needs, so mining a campaign
// whose captures verify never generates the world.
//
// An inputs file that is missing, fails its manifest digest, or
// predates this build is regenerated first, which builds the world:
// each week's addresses are read from its capture where that still
// matches its manifest digest, and from the regenerated traffic where
// it does not. The new file is written atomically, read back and
// checked against the manifest's digest the way a rewritten capture is
// (ErrInputsDigest when it differs); a campaign written before inputs
// files existed, or whose file predates this build, records the new
// digest in its manifest. Either way the analysis half is read from
// the file.
func Open(ctx context.Context, fsys vfs.FS, dir string) (*Manifest, *pipeline.Env, error) {
	man, err := ReadManifestFS(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, inputs.FileName)
	in, err := readInputs(fsys, path, man.InputsDigest)
	if err == nil {
		return man, pipeline.NewInputsEnv(man.Config, man.Options, in, man.Rebuild), nil
	}
	outdated := errors.Is(err, errOutdated)
	env, err := man.Rebuild()
	if err != nil {
		return nil, nil, err
	}
	raw, err := recordInputs(ctx, env, fsys, dir, man)
	if err != nil {
		return nil, nil, err
	}
	if err := vfs.WriteFileAtomic(fsys, path, raw, ".snap-*"); err != nil {
		return nil, nil, err
	}
	digest := digestOf(raw)
	if man.InputsDigest != "" && !outdated && digest != man.InputsDigest {
		return nil, nil, fmt.Errorf("%w: %s vs %s", ErrInputsDigest, digest, man.InputsDigest)
	}
	if in, err = readInputs(fsys, path, digest); err != nil {
		return nil, nil, fmt.Errorf("capture: reading back the regenerated inputs file: %w", err)
	}
	if man.InputsDigest != digest {
		man.Inputs, man.InputsDigest = inputs.FileName, digest
		if err := SaveManifestFS(fsys, dir, man); err != nil {
			return nil, nil, err
		}
	}
	env.Inputs = in
	return man, env, nil
}

// readInputs reads the inputs file at path, requiring the digest want,
// and builds the analysis half it describes.
func readInputs(fsys vfs.FS, path, want string) (pipeline.Inputs, error) {
	if want == "" {
		return pipeline.Inputs{}, errOutdated
	}
	raw, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return pipeline.Inputs{}, err
	}
	if got := digestOf(raw); got != want {
		return pipeline.Inputs{}, fmt.Errorf("capture: inputs file digest %s, manifest %s", got, want)
	}
	in, err := inputs.Read(raw)
	if err != nil {
		return pipeline.Inputs{}, fmt.Errorf("%w: %w", errOutdated, err)
	}
	return in, nil
}

// recordInputs renders the inputs file of man's campaign from env, a
// world-backed Env over the same configuration.
func recordInputs(ctx context.Context, env *pipeline.Env, fsys vfs.FS, dir string, man *Manifest) ([]byte, error) {
	rec, err := inputs.NewRecorder(env, fsys, dir)
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	cfg := &man.Config
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		tap := inputs.NewTap(wk)
		if i := man.WeekIndex(wk); i >= 0 {
			got, err := tapCapture(fsys, filepath.Join(dir, man.Files[i]), tap)
			if err == nil && got == man.Digests[i] {
				rec.Record(tap)
				continue
			}
			tap = inputs.NewTap(wk)
		}
		if man.Anonymized {
			return nil, fmt.Errorf("%w: week %d: its capture does not verify, and an anonymized campaign's addresses cannot be regenerated without its key",
				ErrInputsDigest, wk)
		}
		if _, err := env.EachDatagram(ctx, wk, func(d *sflow.Datagram) error {
			tap.Observe(d)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("capture: week %d: %w", wk, err)
		}
		rec.Record(tap)
	}
	return rec.Encode()
}

// tapCapture feeds every datagram of the capture at path to tap and
// returns the sha256 of the bytes it read.
func tapCapture(fsys vfs.FS, path string, tap *inputs.Tap) (string, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	br, err := sflow.NewBlockReader(io.TeeReader(f, h))
	if err != nil {
		return "", err
	}
	var d sflow.Datagram
	for {
		err := br.Next(&d)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		tap.Observe(&d)
	}
	// The reader stops at the footer; hash whatever follows it too.
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

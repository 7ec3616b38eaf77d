package capture

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ixplens/internal/faultline"
	"ixplens/internal/inputs"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

// inputsCampaign writes a full 17-week Tiny campaign and returns the
// world-backed Env that wrote it.
func inputsCampaign(t *testing.T, dir string, faults *faultline.Config, opts WriteOptions) *pipeline.Env {
	t.Helper()
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.Options{SamplesPerWeek: 3000, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	env.Faults = faults
	if _, err := WriteCampaignOpts(context.Background(), env, dir, opts); err != nil {
		t.Fatal(err)
	}
	env.Faults = nil
	return env
}

// TestGoldenInputsFileMatchesWorld mines every week of a campaign twice
// — with the analysis half read from the campaign's inputs file, and
// with it built from the world — and requires byte-identical snapshots
// and identical §5 organizations, on a clean, a fault-injected and an
// anonymized campaign.
func TestGoldenInputsFileMatchesWorld(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults *faultline.Config
		opts   WriteOptions
	}{
		{name: "clean"},
		{name: "faulted", faults: &faultline.Config{Seed: 3, Drop: 0.05, Truncate: 0.005, BitFlip: 0.005}},
		{name: "anonymized", opts: WriteOptions{Anonymize: true, AnonKey: 99}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			world := inputsCampaign(t, dir, tc.faults, tc.opts)
			man, file, err := Open(context.Background(), vfs.Default, dir)
			if err != nil {
				t.Fatal(err)
			}
			if file.World != nil {
				t.Fatal("opening a verified campaign built the world")
			}
			if got, want := file.String(), world.String(); got != want {
				t.Fatalf("file-backed env %s, world %s", got, want)
			}
			for i, wk := range man.Weeks {
				path := filepath.Join(dir, man.Files[i])
				a, err := AnalyzeWeekSnapshot(context.Background(), world, path, wk)
				if err != nil {
					t.Fatal(err)
				}
				b, err := AnalyzeWeekSnapshot(context.Background(), file, path, wk)
				if err != nil {
					t.Fatal(err)
				}
				ea, err := snapshot.AppendEncode(nil, a)
				if err != nil {
					t.Fatal(err)
				}
				eb, err := snapshot.AppendEncode(nil, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ea, eb) {
					t.Fatalf("week %d: snapshot from the inputs file differs from the world's", wk)
				}
				ma, ca, cla := world.Organizations(a.Result)
				mb, cb, clb := file.Organizations(b.Result)
				if ca != cb || len(ma) != len(mb) || !reflect.DeepEqual(cla.ByServer, clb.ByServer) {
					t.Fatalf("week %d: organizations differ: coverage %+v vs %+v, %d vs %d clusters",
						wk, ca, cb, len(cla.Clusters), len(clb.Clusters))
				}
			}
			if file.World != nil {
				t.Fatal("analysis from the inputs file built the world")
			}
		})
	}
}

// TestInputsRegenerated removes, damages and outdates a campaign's
// inputs file: Open rebuilds the world, writes a file whose digest is
// the manifest's, and records a digest where the manifest had none.
func TestInputsRegenerated(t *testing.T) {
	dir := t.TempDir()
	inputsCampaign(t, dir, nil, WriteOptions{})
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, inputs.FileName)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Inputs != inputs.FileName || man.InputsDigest != digestOf(want) {
		t.Fatalf("manifest records %q %s, want %q %s", man.Inputs, man.InputsDigest, inputs.FileName, digestOf(want))
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T)
	}{
		{"missing", func(t *testing.T) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"damaged", func(t *testing.T) {
			if _, err := faultline.FlipFileBitFS(vfs.Default, path, 7); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T) {
			if err := os.Truncate(path, int64(len(want)/2)); err != nil {
				t.Fatal(err)
			}
		}},
		{"unrecorded", func(t *testing.T) {
			old := *man
			old.Inputs, old.InputsDigest = "", ""
			if err := SaveManifestFS(vfs.Default, dir, &old); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.damage(t)
			got, env, err := Open(context.Background(), vfs.Default, dir)
			if err != nil {
				t.Fatal(err)
			}
			if env.World == nil {
				t.Fatal("regenerating the inputs file did not build the world")
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) || got.InputsDigest != man.InputsDigest {
				t.Fatalf("regenerated file digest %s, manifest %s, want %s", digestOf(raw), got.InputsDigest, man.InputsDigest)
			}
			if disk, err := ReadManifest(dir); err != nil || disk.InputsDigest != man.InputsDigest {
				t.Fatalf("manifest on disk records %v (%v)", disk, err)
			}
			if _, again, err := Open(context.Background(), vfs.Default, dir); err != nil || again.World != nil {
				t.Fatalf("reopening the repaired campaign: world built %v, err %v", again != nil && again.World != nil, err)
			}
		})
	}
}

// TestRefuseInputsDigestMismatch: a regenerated inputs file that does
// not reproduce the manifest's digest is refused, as a rewritten
// capture with another digest is.
func TestRefuseInputsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	inputsCampaign(t, dir, nil, WriteOptions{})
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.InputsDigest = digestOf([]byte("another world"))
	if err := SaveManifestFS(vfs.Default, dir, man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(context.Background(), vfs.Default, dir); !errors.Is(err, ErrInputsDigest) {
		t.Fatalf("Open = %v, want ErrInputsDigest", err)
	}
}

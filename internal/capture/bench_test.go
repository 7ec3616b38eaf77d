package capture

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

// benchFixture holds one week rendered to disk, shared by every
// benchmark in the package (generation costs far more than any measured
// pass, so it runs once).
type benchFixture struct {
	env   *pipeline.Env
	week  int
	v2    string
	size2 int64
	err   error
}

var (
	benchOnce sync.Once
	bench     benchFixture
)

func benchSetup(b *testing.B) *benchFixture {
	b.Helper()
	benchOnce.Do(func() {
		cfg := netmodel.Tiny()
		cfg.Weeks = 2
		opts := traffic.Options{SamplesPerWeek: 20_000, SamplingRate: 16384, SnapLen: 128}
		env, err := pipeline.NewEnv(cfg, opts)
		if err != nil {
			bench.err = err
			return
		}
		dir, err := os.MkdirTemp("", "ixplens-capture-bench")
		if err != nil {
			bench.err = err
			return
		}
		bench.env = env
		bench.week = cfg.FirstWeek
		bench.v2 = filepath.Join(dir, WeekFile(bench.week))
		if _, err := WriteCampaignOpts(context.Background(), env, dir, WriteOptions{}); err != nil {
			bench.err = err
			return
		}
		bench.size2 = fileSize(&bench.err, bench.v2)
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return &bench
}

func fileSize(errp *error, path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		if *errp == nil {
			*errp = err
		}
		return 0
	}
	return fi.Size()
}

// BenchmarkAnalyzeWeekSnapshot measures the full capture-to-result pass.
// On GOMAXPROCS>=4 hosts it fans block decoding over the parallel
// reader.
func BenchmarkAnalyzeWeekSnapshot(b *testing.B) {
	fx := benchSetup(b)
	run := func(b *testing.B, path string, size int64) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := AnalyzeWeekSnapshot(context.Background(), fx.env, path, fx.week)
			if err != nil {
				b.Fatal(err)
			}
			if snap.Counts.Total == 0 || len(snap.Result.Servers) == 0 {
				b.Fatal("empty analysis")
			}
		}
	}
	b.Run("v2-parallel", func(b *testing.B) { run(b, fx.v2, fx.size2) })
}

// BenchmarkDecodeWeekFile isolates container decoding from the analysis:
// a pure drain of every datagram in the file.
func BenchmarkDecodeWeekFile(b *testing.B) {
	fx := benchSetup(b)
	drain := func(b *testing.B, src interface{ Next(*sflow.Datagram) error }) {
		var d sflow.Datagram
		for {
			err := src.Next(&d)
			if err == io.EOF {
				return
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("v2-serial", func(b *testing.B) {
		b.SetBytes(fx.size2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(fx.v2)
			if err != nil {
				b.Fatal(err)
			}
			br, err := sflow.NewBlockReader(f)
			if err != nil {
				b.Fatal(err)
			}
			drain(b, br)
			f.Close()
		}
	})
	b.Run("v2-parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		b.SetBytes(fx.size2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(fx.v2)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := sflow.NewParallelBlockReader(f, workers)
			if err != nil {
				b.Fatal(err)
			}
			drain(b, pr)
			pr.Close()
			f.Close()
		}
	})
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/core/churn"
	"ixplens/internal/core/cluster"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/metadata"
	"ixplens/internal/entity"
	"ixplens/internal/ixp"
	"ixplens/internal/obs"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/serve"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
	"ixplens/internal/vfs"
)

// The in-process layer driver. It calls each layer's public functions
// over one week of a mined fixture, every timing the median of
// layerReps calls, and records a span around every call. The layers are
// run one after the other on materialised inputs — block read, sequence
// tracking, classify, observe, finish — so each cost is seen alone, and
// trace.coverage reconciles their sum against capture.AnalyzeWeekSnapshot,
// which fuses them.

const (
	layerReps = 5
	heavyReps = 3 // world rebuilds: NewEnv, OpenStore
)

// countFS is the harness's counting and timing vfs.FS. Passed as Env.FS
// it sees every byte and fsync of the code under it, and records a
// vfs.fsync span under the span that is current.
type countFS struct {
	vfs.FS
	tr     *tracer
	parent atomic.Int64 // span the next fsync belongs to
	week   int

	fsyncs     atomic.Int64
	fsyncNanos atomic.Int64
	written    atomic.Int64
	read       atomic.Int64
}

func (c *countFS) sync(fn func() error) error {
	id := c.tr.begin("vfs.fsync", int(c.parent.Load()), c.week)
	err := fn()
	c.fsyncNanos.Add(int64(c.tr.end(id)))
	c.fsyncs.Add(1)
	return err
}

func (c *countFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (vfs.File, error)   { return c.wrap(c.FS.Open(name)) }
func (c *countFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}
func (c *countFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}
func (c *countFS) SyncDir(dir string) error {
	return c.sync(func() error { return c.FS.SyncDir(dir) })
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read.Add(int64(n))
	return n, err
}
func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.read.Add(int64(n))
	return n, err
}
func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}
func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}
func (f *countFile) Sync() error { return f.fs.sync(f.File.Sync) }

// memSource hands out materialised datagrams without copying. The
// consumers timed here only read them.
type memSource struct {
	ds  []sflow.Datagram
	pos int
}

func (s *memSource) Next(d *sflow.Datagram) error {
	if s.pos >= len(s.ds) {
		return io.EOF
	}
	*d = s.ds[s.pos]
	s.pos++
	return nil
}

// countWriter discards and counts.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// layerRun is the state shared by the layer driver's steps.
type layerRun struct {
	tr      *tracer
	root    int // the span every layer span hangs under
	dir     string
	week    int
	workers int // the N of the .wN metrics
	res     *result

	man  *capture.Manifest
	env  *pipeline.Env
	path string // the focus week's capture file
	ds   []sflow.Datagram
	recs []dissect.Record
	snap *snapshot.Snapshot
}

// timed runs fn reps times under spans called name and returns the
// durations.
func (l *layerRun) timed(name string, reps int, fn func() error) ([]time.Duration, error) {
	return l.timedUnder(l.root, name, reps, fn)
}

func (l *layerRun) timedUnder(parent int, name string, reps int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		var err error
		out = append(out, l.tr.time(name, parent, l.week, func() { err = fn() }))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

func (l *layerRun) set(name string, value float64, n int) { l.res.set(perLayer, name, value, n) }

// setN stores a .wN metric, flagged when the workers had no idle core
// each: the harness's own goroutine feeds them, so N workers need N+1.
func (l *layerRun) setN(name string, value float64, n int) {
	l.set(name, value, n)
	m := l.res.Metrics[name]
	m.Oversubscribed = l.workers+1 > runtime.NumCPU()
	l.res.Metrics[name] = m
}

func medianOf(ds []time.Duration, conv func(time.Duration) float64) float64 {
	return median(durationsTo(ds, conv))
}

func nanos(d time.Duration) float64 { return float64(d) }

// allocs runs fn and returns what it allocated.
func allocs(fn func() error) (bytes, objects uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs, err
}

// runLayers measures every layer over dir's focus week and fills the
// per-layer metrics that come from in-process calls.
func runLayers(tr *tracer, root int, dir string, workers int, res *result) error {
	l := &layerRun{tr: tr, root: root, dir: dir, week: focusWeek, workers: workers, res: res}
	steps := []func() error{
		l.world, l.generate, l.materialise, l.codec, l.blockIO, l.captureLayer,
		l.dissectLayer, l.entityLayer, l.analysisLayer, l.deepDive, l.snapshotLayer,
		l.superviseWeek, l.serveLayer,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// world: netmodel.newenv_ms.
func (l *layerRun) world() (err error) {
	if l.man, err = capture.ReadManifestFS(vfs.Default, l.dir); err != nil {
		return err
	}
	idx := l.man.WeekIndex(l.week)
	if idx < 0 {
		return fmt.Errorf("week %d is not in the fixture", l.week)
	}
	l.path = filepath.Join(l.dir, l.man.Files[idx])
	ds, err := l.timed("netmodel.newenv", heavyReps, func() (err error) {
		l.env, err = l.man.Rebuild()
		return err
	})
	if err != nil {
		return err
	}
	l.set("netmodel.newenv_ms", medianOf(ds, millis), len(ds))
	return nil
}

// generate: traffic.generate_ns_per_sample, ixp.samples_per_datagram.
// The sink only counts, so there is no sink time to subtract.
func (l *layerRun) generate() error {
	var samples, datagrams int
	ds, err := l.timed("traffic.generate", layerReps, func() error {
		samples, datagrams = 0, 0
		col := ixp.NewCollector(l.env.Fabric, l.env.Opts.SamplingRate, func(d *sflow.Datagram) error {
			datagrams++
			samples += len(d.Flows)
			return nil
		})
		col.SetBufferReuse(true)
		_, err := l.env.Gen.GenerateWeek(l.week, col)
		return err
	})
	if err != nil {
		return err
	}
	if samples == 0 || datagrams == 0 {
		return errors.New("traffic.generate: no samples")
	}
	l.set("traffic.generate_ns_per_sample", medianOf(ds, nanos)/float64(samples), len(ds))
	l.set("ixp.samples_per_datagram", float64(samples)/float64(datagrams), datagrams)
	return nil
}

// materialise loads the focus week's datagrams into memory (not a layer
// measurement; the inputs for the ones below).
func (l *layerRun) materialise() error {
	f, err := os.Open(l.path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := sflow.NewBlockReader(f)
	if err != nil {
		return err
	}
	var d sflow.Datagram
	for {
		err := br.Next(&d)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", l.path, err)
		}
		l.ds = append(l.ds, *d.Clone())
	}
	if len(l.ds) == 0 {
		return fmt.Errorf("%s holds no datagrams", l.path)
	}
	return nil
}

// codec: sflow.encode_ns_per_datagram, sflow.decode_ns_per_datagram,
// sflow.block_write_mb_s.
func (l *layerRun) codec() error {
	n := float64(len(l.ds))
	var buf []byte
	enc, err := l.timed("sflow.encode", layerReps, func() error {
		for i := range l.ds {
			buf = l.ds[i].AppendEncode(buf[:0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sflow.encode_ns_per_datagram", medianOf(enc, nanos)/n, len(enc))

	wire := make([][]byte, len(l.ds))
	for i := range l.ds {
		wire[i] = l.ds[i].AppendEncode(nil)
	}
	var d sflow.Datagram
	dec, err := l.timed("sflow.decode", layerReps, func() error {
		for _, b := range wire {
			if err := sflow.Decode(b, &d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sflow.decode_ns_per_datagram", medianOf(dec, nanos)/n, len(dec))

	var written int64
	bw, err := l.timed("sflow.block_write", layerReps, func() error {
		cw := &countWriter{}
		w, err := sflow.NewBlockWriter(cw, l.man.Compression)
		if err != nil {
			return err
		}
		for i := range l.ds {
			if err := w.WriteDatagram(&l.ds[i]); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		written = cw.n
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sflow.block_write_mb_s", float64(written)/1e6/median(durationsTo(bw, seconds)), len(bw))
	return nil
}

// drain reads a datagram source to its end.
func drain(src dissect.DatagramSource) (int, error) {
	var d sflow.Datagram
	n := 0
	for {
		err := src.Next(&d)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// blockIO: sflow.block_read_mb_s.wN and the serial reader's allocation
// cost. (The serial reader's speed comes from the staged week in
// analysisLayer, where it is one of the reconciled layers.)
func (l *layerRun) blockIO() error {
	st, err := os.Stat(l.path)
	if err != nil {
		return err
	}
	mb := float64(st.Size()) / 1e6
	par, err := l.timed("sflow.block_read.wN", layerReps, func() error {
		f, err := os.Open(l.path)
		if err != nil {
			return err
		}
		defer f.Close()
		pr, err := sflow.NewParallelBlockReader(f, l.workers)
		if err != nil {
			return err
		}
		defer pr.Close()
		_, err = drain(pr)
		return err
	})
	if err != nil {
		return err
	}
	l.setN("sflow.block_read_mb_s.wN", mb/median(durationsTo(par, seconds)), len(par))

	bytes, objects, err := allocs(func() error {
		f, err := os.Open(l.path)
		if err != nil {
			return err
		}
		defer f.Close()
		br, err := sflow.NewBlockReader(f)
		if err != nil {
			return err
		}
		_, err = drain(br)
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(l.ds))
	l.set("sflow.block_read_alloc_b_per_datagram.w1", float64(bytes)/n, 1)
	l.set("sflow.block_read_allocs_per_datagram.w1", float64(objects)/n, 1)
	return nil
}

// captureLayer: capture.write_week_ms (through the counting FS, so its
// fsyncs appear as child spans), capture.digest_mb_s,
// capture.analyze_week_ms and its allocation.
func (l *layerRun) captureLayer() error {
	idx := l.man.WeekIndex(l.week)
	tmp, err := cleanup.tempDir(filepath.Dir(l.dir), "layers-write-*")
	if err != nil {
		return err
	}
	defer cleanup.removeDir(tmp)
	cfs := &countFS{FS: vfs.Default, tr: l.tr, week: l.week}
	wenv := *l.env
	wenv.FS = cfs
	out := filepath.Join(tmp, capture.WeekFile(l.week))
	opts := capture.WriteOptions{Compress: l.man.Compression}
	var ws []time.Duration
	for i := 0; i < layerReps; i++ {
		id := l.tr.begin("capture.write_week", l.root, l.week)
		cfs.parent.Store(int64(id))
		_, digest, err := capture.WriteWeekFile(context.Background(), &wenv, l.week, out, opts)
		ws = append(ws, l.tr.end(id))
		if err != nil {
			return fmt.Errorf("capture.write_week: %w", err)
		}
		if digest != l.man.Digests[idx] {
			l.res.fail("capture.WriteWeekFile digest for week %d differs from the manifest ixpgen wrote", l.week)
		}
	}
	l.set("capture.write_week_ms", medianOf(ws, millis), len(ws))
	l.vfsPerWeek(cfs, layerReps)

	st, err := os.Stat(l.path)
	if err != nil {
		return err
	}
	dg, err := l.timed("capture.digest", layerReps, func() error {
		d, err := capture.FileDigestFS(vfs.Default, l.path)
		if err == nil && d != l.man.Digests[idx] {
			err = errors.New("digest differs from the manifest")
		}
		return err
	})
	if err != nil {
		return err
	}
	l.set("capture.digest_mb_s", float64(st.Size())/1e6/median(durationsTo(dg, seconds)), len(dg))

	var allocMB []float64
	an, err := l.timed("capture.analyze_week", layerReps, func() error {
		b, _, err := allocs(func() (err error) {
			l.snap, err = capture.AnalyzeWeekSnapshot(context.Background(), l.env, l.path, l.week)
			return err
		})
		allocMB = append(allocMB, float64(b)/1e6)
		return err
	})
	if err != nil {
		return err
	}
	l.set("capture.analyze_week_ms", medianOf(an, millis), len(an))
	l.set("capture.analyze_alloc_mb_per_week", median(allocMB), len(allocMB))
	return nil
}

// vfsPerWeek adds what a counting FS saw, divided over the weeks it
// covered, to the vfs.* metrics. One written week and one supervised
// week are summed: a week's life on disk.
func (l *layerRun) vfsPerWeek(c *countFS, weeks int) {
	add := func(name string, v float64) {
		l.set(name, l.res.Metrics[name].Value+v/float64(weeks), weeks)
	}
	add("vfs.fsync_ms_per_week", float64(c.fsyncNanos.Load())/1e6)
	add("vfs.fsyncs_per_week", float64(c.fsyncs.Load()))
	add("vfs.write_mb_per_week", float64(c.written.Load())/1e6)
	add("vfs.read_mb_per_week", float64(c.read.Load())/1e6)
}

// dissectLayer: dissect.sharded_ns_per_sample.w1/.wN with a no-op
// observer, dissect.peering_share, and the materialised records the
// analysis layer consumes.
func (l *layerRun) dissectLayer() error {
	noop := func(int, *dissect.Record, uint64) {}
	var counts dissect.Counts
	for _, w := range []int{1, l.workers} {
		ds, err := l.timed(fmt.Sprintf("dissect.sharded.w%d", w), layerReps, func() (err error) {
			counts, err = dissect.ProcessSharded(context.Background(), &memSource{ds: l.ds}, l.env.Fabric, w, noop, nil)
			return err
		})
		if err != nil {
			return err
		}
		per := medianOf(ds, nanos) / float64(counts.Total)
		if w == 1 {
			l.set("dissect.sharded_ns_per_sample.w1", per, len(ds))
		}
		if w == l.workers {
			l.setN("dissect.sharded_ns_per_sample.wN", per, len(ds))
		}
	}
	l.set("dissect.peering_share", counts.PeeringShare(), counts.Total)

	// A record's payload aliases its datagram; l.ds stays in memory, so
	// plain copies of the records remain valid for the observers below.
	cls := dissect.NewClassifier(l.env.Fabric)
	var c dissect.Counts
	for i := range l.ds {
		cls.ClassifyDatagram(&l.ds[i], &c, func(rec *dissect.Record) { l.recs = append(l.recs, *rec) })
	}
	return nil
}

// entityLayer: entity.resolve_miss_ns / _hit_ns on a fresh table and
// routing.lookup_ns over the same addresses.
func (l *layerRun) entityLayer() error {
	seen := map[packet.IPv4Addr]bool{}
	var ips []packet.IPv4Addr
	for i := range l.recs {
		for _, ip := range []packet.IPv4Addr{l.recs[i].SrcIP, l.recs[i].DstIP} {
			if !seen[ip] {
				seen[ip] = true
				ips = append(ips, ip)
			}
		}
	}
	n := float64(len(ips))
	rib, gdb := l.env.World.RIB(), l.env.World.GeoDB()
	var miss, hit []time.Duration
	for i := 0; i < layerReps; i++ {
		t := entity.NewTable(rib, gdb)
		resolve := func() {
			for _, ip := range ips {
				t.ResolveAttrs(ip)
			}
		}
		miss = append(miss, l.tr.time("entity.resolve_miss", l.root, l.week, resolve))
		hit = append(hit, l.tr.time("entity.resolve_hit", l.root, l.week, resolve))
	}
	l.set("entity.resolve_miss_ns", medianOf(miss, nanos)/n, len(miss))
	l.set("entity.resolve_hit_ns", medianOf(hit, nanos)/n, len(hit))
	look, err := l.timed("routing.lookup", layerReps, func() error {
		for _, ip := range ips {
			rib.Lookup(ip)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("routing.lookup_ns", medianOf(look, nanos)/n, len(look))
	return nil
}

// observe feeds every materialised record to a run's worker 0.
func (l *layerRun) observe(run *analysis.Run) {
	for i := range l.recs {
		run.Observe(0, &l.recs[i], uint64(i))
	}
}

// analysisLayer: one-analyzer registries for the per-analyzer observe
// costs, then the staged week — block read, sequence tracking, classify,
// observe (all analyzers), finish as sibling spans under one trace.week
// span — whose self times are what trace.coverage sums.
func (l *layerRun) analysisLayer() error {
	n := float64(len(l.recs))
	singles := []struct {
		name string
		a    analysis.Analyzer
	}{
		{"webserver", analysis.Webserver()}, {"visibility", analysis.Visibility()}, {"links", analysis.Links()},
	}
	for _, s := range singles {
		reg, err := analysis.NewRegistry(s.a)
		if err != nil {
			return err
		}
		ds, err := l.timed("analysis.observe."+s.name, layerReps, func() error {
			l.observe(reg.NewRun(l.env.AnalysisContext(), 1))
			return nil
		})
		if err != nil {
			return err
		}
		l.set("analysis.observe_ns_per_sample."+s.name, medianOf(ds, nanos)/n, len(ds))
	}

	st, err := os.Stat(l.path)
	if err != nil {
		return err
	}
	var servers int
	var samples int
	for i := 0; i < layerReps; i++ {
		week := l.tr.begin("trace.week", l.root, l.week)
		if _, err := l.timedUnder(week, "sflow.block_read", 1, func() error {
			f, err := os.Open(l.path)
			if err != nil {
				return err
			}
			defer f.Close()
			br, err := sflow.NewBlockReader(f)
			if err != nil {
				return err
			}
			_, err = drain(br)
			return err
		}); err != nil {
			return err
		}
		l.tr.time("sflow.seq_track", week, l.week, func() {
			var seq sflow.SeqTracker
			for i := range l.ds {
				seq.Observe(&l.ds[i])
			}
		})
		l.tr.time("dissect.classify", week, l.week, func() {
			cls := dissect.NewClassifier(l.env.Fabric)
			var c dissect.Counts
			for i := range l.ds {
				cls.ClassifyDatagram(&l.ds[i], &c, nil)
			}
			samples = c.Total
		})
		run := analysis.Default().NewRun(l.env.AnalysisContext(), 1)
		l.tr.time("analysis.observe", week, l.week, func() { l.observe(run) })
		if _, err := l.timedUnder(week, "analysis.finish", 1, func() error {
			prods, err := run.Finish(l.week)
			if err == nil {
				servers = len(prods.Webserver().Servers)
			}
			return err
		}); err != nil {
			return err
		}
		l.tr.end(week)
	}
	self := selfByName(l.tr.snapshot())
	read, track, classify := self["sflow.block_read"], self["sflow.seq_track"], self["dissect.classify"]
	observe, finish := self["analysis.observe"], self["analysis.finish"]
	l.set("sflow.block_read_mb_s.w1", float64(st.Size())/1e6/median(durationsTo(read, seconds)), len(read))
	l.set("dissect.classify_ns_per_sample", medianOf(classify, nanos)/float64(samples), len(classify))
	l.set("analysis.observe_ns_per_sample.all", medianOf(observe, nanos)/n, len(observe))
	l.set("analysis.finish_ms", medianOf(finish, millis), len(finish))
	l.set("analysis.servers", float64(servers), 1)

	staged := medianOf(read, millis) + medianOf(track, millis) + medianOf(classify, millis) +
		medianOf(observe, millis) + medianOf(finish, millis)
	l.set("trace.coverage", staged/l.res.Metrics["capture.analyze_week_ms"].Value, layerReps)
	return nil
}

// deepDive: metadata.collect_ms and cluster.run_ms as ixpmine runs them
// once for the focus week, churn.add_ms_per_week and churn.compute_ms
// over every week's snapshot.
func (l *layerRun) deepDive() error {
	var metas []metadata.ServerMeta
	col, err := l.timed("metadata.collect", layerReps, func() error {
		metas, _ = metadata.Collect(l.snap.Result, l.env.DNS)
		return nil
	})
	if err != nil {
		return err
	}
	l.set("metadata.collect_ms", medianOf(col, millis), len(col))
	opts := cluster.DefaultOptions()
	opts.KnownShared = l.env.DNS.PublicDNSProviders()
	opts.Entities = l.env.EntityTable()
	cl, err := l.timed("cluster.run", layerReps, func() error {
		cluster.Run(metas, opts)
		return nil
	})
	if err != nil {
		return err
	}
	l.set("cluster.run_ms", medianOf(cl, millis), len(cl))

	snaps := make([]*snapshot.Snapshot, len(l.man.Weeks))
	for i, wk := range l.man.Weeks {
		s, err := snapshot.LoadFileFS(vfs.Default, filepath.Join(l.dir, snapshot.FileName(wk)))
		if err != nil {
			return fmt.Errorf("loading week %d snapshot: %w", wk, err)
		}
		snaps[i] = s
	}
	var add, compute []time.Duration
	for i := 0; i < layerReps; i++ {
		tracker := churn.NewTrackerWith(l.env.EntityTable())
		var err error
		add = append(add, l.tr.time("churn.add", l.root, 0, func() {
			for _, s := range snaps {
				if err == nil {
					err = tracker.Add(l.env.Observation(s.Result))
				}
			}
		}))
		if err != nil {
			return fmt.Errorf("churn.add: %w", err)
		}
		compute = append(compute, l.tr.time("churn.compute", l.root, 0, func() { tracker.Compute() }))
	}
	l.set("churn.add_ms_per_week", medianOf(add, millis)/float64(len(snaps)), len(add))
	l.set("churn.compute_ms", medianOf(compute, millis), len(compute))
	return nil
}

// snapshotLayer: encode, save, decode, load of the focus week's mined
// snapshot.
func (l *layerRun) snapshotLayer() error {
	src := filepath.Join(l.dir, snapshot.FileName(l.week))
	snap, err := snapshot.LoadFileFS(vfs.Default, src)
	if err != nil {
		return err
	}
	tmp, err := cleanup.tempDir(filepath.Dir(l.dir), "layers-snap-*")
	if err != nil {
		return err
	}
	defer cleanup.removeDir(tmp)
	out := filepath.Join(tmp, snapshot.FileName(l.week))
	var buf []byte
	steps := []struct {
		span, metric string
		fn           func() error
	}{
		{"snapshot.encode", "snapshot.encode_ms", func() (err error) { buf, err = snapshot.AppendEncode(buf[:0], snap); return err }},
		{"snapshot.save", "snapshot.save_ms", func() error { _, err := snapshot.SaveFileFS(vfs.Default, out, snap); return err }},
		{"snapshot.decode", "snapshot.decode_ms", func() error { _, err := snapshot.Decode(buf); return err }},
		{"snapshot.load", "snapshot.load_ms", func() error { _, err := snapshot.LoadFileFS(vfs.Default, src); return err }},
	}
	for _, s := range steps {
		ds, err := l.timed(s.span, layerReps, s.fn)
		if err != nil {
			return err
		}
		l.set(s.metric, medianOf(ds, millis), len(ds))
	}
	l.set("snapshot.bytes", float64(len(buf)), 1)
	return nil
}

// superviseWeek runs the real supervisor over a one-week copy of the
// campaign through the counting FS: the journal appends, verification
// reads and snapshot fsyncs of one adopted week. The run is cancelled
// from the OnWeek hook once the first week is done.
func (l *layerRun) superviseWeek() error {
	tmp, err := cleanup.tempDir(filepath.Dir(l.dir), "layers-supervise-*")
	if err != nil {
		return err
	}
	defer cleanup.removeDir(tmp)
	first := l.man.Weeks[0]
	for _, name := range []string{capture.ManifestName, capture.WeekFile(first)} {
		if err := os.Link(filepath.Join(l.dir, name), filepath.Join(tmp, name)); err != nil {
			return err
		}
	}
	cfs := &countFS{FS: vfs.Default, tr: l.tr, week: first}
	senv := *l.env
	senv.FS = cfs
	sup, err := supervise.New(&senv, tmp, supervise.Config{Capture: capture.WriteOptions{Compress: l.man.Compression}}, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var status string
	sup.Hooks.OnWeek = func(ws supervise.WeekStatus, _ *snapshot.Snapshot) {
		status = ws.Status
		cancel()
	}
	id := l.tr.begin("supervise.week", l.root, first)
	cfs.parent.Store(int64(id))
	_, err = sup.Run(ctx)
	l.tr.end(id)
	if cerr := sup.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("supervise.week: %w", err)
	}
	if status != "done" {
		l.res.fail("supervised week %d ended %q, want done", first, status)
	}
	l.vfsPerWeek(cfs, 1)
	return nil
}

// serveLayer: serve.open_ms, the per-endpoint handler times on a warm
// in-process server, and serve.cold_load_ms on a one-week cache.
func (l *layerRun) serveLayer() error {
	var store *serve.Store
	open, err := l.timed("serve.open", heavyReps, func() (err error) {
		store, err = serve.OpenStore(l.dir, false)
		return err
	})
	if err != nil {
		return err
	}
	l.set("serve.open_ms", medianOf(open, millis), len(open))

	warm := serve.New(store, serve.Config{CacheWeeks: 32}, obs.NewRegistry())
	defer warm.Close()
	if code, body := inProcess(warm, "/churn"); code != http.StatusOK {
		return fmt.Errorf("in-process /churn: HTTP %d: %s", code, body)
	}
	for _, m := range warmMix {
		name := m.endpoint
		reps := 4*layerReps + 1
		if name == "churn" {
			reps = layerReps
		}
		path := endpointURL(name, l.week)
		ds, err := l.timed("serve.handler."+name, reps, func() error {
			if code, body := inProcess(warm, path); code != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d: %s", path, code, body)
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.set("serve.handler_us."+name, medianOf(ds, micros), len(ds))
	}

	coldStore, err := serve.OpenStore(l.dir, false)
	if err != nil {
		return err
	}
	cold := serve.New(coldStore, serve.Config{CacheWeeks: 1}, nil)
	defer cold.Close()
	other := l.man.Weeks[0]
	i := 0
	ds, err := l.timed("serve.cold_load", 2*layerReps, func() error {
		wk := []int{l.week, other}[i%2] // each request evicts the other week
		i++
		path := endpointURL("week", wk)
		if code, body := inProcess(cold, path); code != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, code, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("serve.cold_load_ms", medianOf(ds, millis), len(ds))
	return nil
}

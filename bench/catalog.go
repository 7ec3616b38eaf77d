package main

import "fmt"

// The workload and metric catalogues. BENCHMARK.json at the repository
// root carries the same names, units, directions and bounds for the
// driver; TestCatalogMatchesBenchmarkJSON keeps the two from drifting.

// kind selects which stage of the chain a workload repeats and times.
type kind int

const (
	kindMine  kind = iota // ixpmine over a fresh ixpgen fixture
	kindWrite             // ixpgen into a fresh directory
	kindServe             // closed-loop requests against ixpserve
)

// workload is one set of inputs. Sizes are fixed here and nowhere else;
// smoke substitutes the smoke sizes.
type workload struct {
	Name string
	Why  string
	Kind kind
	// Fixture: ixpgen -scale Scale -samples Samples.
	Scale   float64
	Samples int
	// MinReps is the least number of timed campaigns (mine, write) or
	// passes over the request sequence (serve); more are run until the
	// requested measuring time is used.
	MinReps int
	// Serve workloads: ixpserve -cache-weeks CacheWeeks, Requests per
	// pass, Cold selects the all-miss week walk instead of the mix.
	CacheWeeks int
	Requests   int
	Cold       bool
}

var workloads = []workload{
	{
		Name: "mine-dense", Kind: kindMine, Scale: 0.002, Samples: 60000, MinReps: 3,
		Why: "few entities, many samples: sflow block read, dissect and webserver observe do most of ixpmine's work",
	},
	{
		Name: "mine-wide", Kind: kindMine, Scale: 0.25, Samples: 20000, MinReps: 3,
		Why: "same code, opposite shape (10.7K ASes, 111K prefixes): netmodel rebuild, entity, routing and per-entity analyzer state dominate",
	},
	{
		Name: "capture-write", Kind: kindWrite, Scale: 0.01, Samples: 60000, MinReps: 5,
		Why: "the sflow and capture layers used the other way: traffic, ixp, encode, BlockWriter, fsync, manifest; analysis layers idle",
	},
	{
		Name: "serve-warm", Kind: kindServe, Scale: 0.02, Samples: 20000, MinReps: 3,
		CacheWeeks: 32, Requests: 1500,
		Why: "all 17 weeks resident: only serve handlers and JSON rendering work; snapshot and capture layers idle",
	},
	{
		Name: "serve-cold", Kind: kindServe, Scale: 0.02, Samples: 20000, MinReps: 3,
		CacheWeeks: 2, Requests: 300, Cold: true,
		Why: "same server, every request misses the 2-week cache: Store.Load and snapshot load+decode dominate",
	},
}

// smokeSized shrinks a workload to the -smoke sizes: a tiny world, 1500
// samples a week, 200 requests, one repetition.
func smokeSized(w workload) workload {
	w.Scale, w.Samples, w.MinReps = 0.002, 1500, 1
	if w.Kind == kindServe {
		w.Requests = 200
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one metric of either catalogue.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd are the numbers a user of the chain sees. Every workload
// reports every one of them; an "operation" is what one closed-loop
// client waits for — a whole campaign of the binary under test on the
// batch workloads, one HTTP request on the serve workloads — and a
// "pass" is one trip over the workload's fixed input: 17 weeks mined or
// written, or the seeded request sequence served.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "campaign_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "req_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer numbers of the traced run. The comment
// on each group says which end-to-end metric it should move, and where.
var perLayer = []metricDef{
	// campaign_s on mine-wide and capture-write (every binary rebuilds
	// the world), setup_s everywhere.
	{Name: "netmodel.newenv_ms", Unit: "ms", Better: "lower"},
	// campaign_s on capture-write.
	{Name: "traffic.generate_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "ixp.samples_per_datagram", Unit: "ratio", Better: "higher"},
	{Name: "sflow.encode_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "sflow.block_write_mb_s", Unit: "MB/s", Better: "higher"},
	// campaign_s and peak_rss_mb on mine-dense, not mine-wide.
	{Name: "sflow.decode_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "sflow.block_read_mb_s.w1", Unit: "MB/s", Better: "higher"},
	{Name: "sflow.block_read_mb_s.wN", Unit: "MB/s", Better: "higher"},
	{Name: "sflow.block_read_alloc_b_per_datagram.w1", Unit: "B", Better: "lower"},
	{Name: "sflow.block_read_allocs_per_datagram.w1", Unit: "count", Better: "lower"},
	// capture-write.
	{Name: "capture.write_week_ms", Unit: "ms", Better: "lower"},
	// campaign_s on both mine-*; analyze_week is the parent the layers
	// below reconcile against (trace.coverage).
	{Name: "capture.digest_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "capture.analyze_week_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.analyze_alloc_mb_per_week", Unit: "MB", Better: "lower"},
	// mine-dense.
	{Name: "dissect.classify_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "dissect.sharded_ns_per_sample.w1", Unit: "ns", Better: "lower"},
	{Name: "dissect.sharded_ns_per_sample.wN", Unit: "ns", Better: "lower"},
	{Name: "dissect.peering_share", Unit: "ratio", Better: "higher"},
	// mine-wide; hit_ratio and table_ips explain dense vs wide.
	{Name: "entity.resolve_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "entity.resolve_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "entity.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "entity.table_ips", Unit: "count", Better: "lower"},
	// webserver: mine-dense (payload parsing); visibility, links, finish
	// and servers: mine-wide.
	{Name: "analysis.observe_ns_per_sample.webserver", Unit: "ns", Better: "lower"},
	{Name: "analysis.observe_ns_per_sample.visibility", Unit: "ns", Better: "lower"},
	{Name: "analysis.observe_ns_per_sample.links", Unit: "ns", Better: "lower"},
	{Name: "analysis.observe_ns_per_sample.all", Unit: "ns", Better: "lower"},
	{Name: "analysis.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.servers", Unit: "count", Better: "higher"},
	// campaign_s on mine-wide; churn.* also req_p99_ms on serve-warm (the
	// /churn tail).
	{Name: "metadata.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.run_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.add_ms_per_week", Unit: "ms", Better: "lower"},
	{Name: "churn.compute_ms", Unit: "ms", Better: "lower"},
	// encode, save, bytes: mine-*. decode, load: req_p50_ms and req_per_s
	// on serve-cold, nothing on serve-warm.
	{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_ms", Unit: "ms", Better: "lower"},
	// campaign_s on mine-*.
	{Name: "supervise.stage_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "supervise.retries", Unit: "count", Better: "lower"},
	{Name: "supervise.overhead_ms_per_week", Unit: "ms", Better: "lower"},
	{Name: "supervise.resume_s", Unit: "s", Better: "lower"},
	// campaign_s on capture-write and mine-*.
	{Name: "vfs.fsync_ms_per_week", Unit: "ms", Better: "lower"},
	{Name: "vfs.fsyncs_per_week", Unit: "count", Better: "lower"},
	{Name: "vfs.write_mb_per_week", Unit: "MB", Better: "lower"},
	{Name: "vfs.read_mb_per_week", Unit: "MB", Better: "lower"},
	// req_p50_ms, req_per_s and req_p99_ms on serve-warm.
	{Name: "serve.handler_us.week", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.servers", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.ases", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.visibility", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.links", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.churn", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.weeks", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	// serve-cold and setup_s.
	{Name: "serve.cold_load_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_ms", Unit: "ms", Better: "lower"},
	// from ixpserve's /metrics, on both serve-*.
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.snapshot_loads", Unit: "count", Better: "lower"},
	{Name: "serve.analyses", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	// every workload.
	{Name: "process.cpu_s", Unit: "s", Better: "lower"},
	{Name: "process.drain_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}

// metric is one reported value. N is the number of samples behind it;
// Oversubscribed marks a .wN timing taken with more workers than idle
// cores, which must not be read as a scaling result.
type metric struct {
	Value          float64 `json:"value"`
	Unit           string  `json:"unit"`
	N              int     `json:"n,omitempty"`
	Oversubscribed bool    `json:"oversubscribed,omitempty"`
}

// result is one run of one workload, as appended to the -out file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Host      *hostInfo         `json:"host"`
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...interface{}) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// set stores a metric, taking its unit from the catalogue.
func (r *result) set(defs []metricDef, name string, value float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: value, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

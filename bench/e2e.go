package main

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/serve"
	"ixplens/internal/vfs"
)

// runConfig is what the command line asks of one run.
type runConfig struct {
	seed    int64
	seconds float64 // timed work is repeated until this much of it was measured
	smoke   bool
}

const (
	maxReps      = 40 // safety stop for the repeat-until-measured loops
	setupRepeats = 3  // server lifetimes per run of a serve workload
	focusWeek    = 45 // the week the reference checks and the layer driver use
)

func newResult(e *env, w workload, rc runConfig, trace bool) *result {
	return &result{
		Workload: w.Name, Seed: rc.seed, Trace: trace, Smoke: rc.smoke,
		Correct: true, Metrics: map[string]metric{}, Host: e.host,
	}
}

func (e *env) gen(w workload, seed int64, dir string) (*childRun, error) {
	return runChild(e.ixpgen,
		"-scale", strconv.FormatFloat(w.Scale, 'f', -1, 64),
		"-samples", strconv.Itoa(w.Samples),
		"-seed", strconv.FormatInt(seed, 10),
		"-out", dir)
}

var (
	reSupervised = regexp.MustCompile(`supervised run: (\d+) done \((\d+) resumed\), (\d+) quarantined in \S+`)
	reWrote      = regexp.MustCompile(`wrote (\d+) weeks to \S+ in \S+`)
)

// mineOutcome parses ixpmine's report line.
func mineOutcome(stdout []byte) (done, resumed, quarantined int, ok bool) {
	m := reSupervised.FindSubmatch(stdout)
	if m == nil {
		return 0, 0, 0, false
	}
	done, _ = strconv.Atoi(string(m[1]))
	resumed, _ = strconv.Atoi(string(m[2]))
	quarantined, _ = strconv.Atoi(string(m[3]))
	return done, resumed, quarantined, true
}

// fileDigests maps every file in dir matching pattern to its sha256.
func fileDigests(dir, pattern string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		if out[filepath.Base(p)], err = capture.FileDigestFS(vfs.Default, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fingerprint is everything one campaign must reproduce byte for byte
// on the next repetition with the same seed.
type fingerprint struct {
	stdout   string            // with the run's duration token blanked
	manifest []string          // the capture digests ixpgen recorded
	snaps    map[string]string // sha256 of every week-*.snap
}

func (f *fingerprint) diff(g *fingerprint) string {
	switch {
	case f.stdout != g.stdout:
		return "stdout differs between repetitions"
	case !slices.Equal(f.manifest, g.manifest):
		return "manifest capture digests differ between repetitions"
	case !maps.Equal(f.snaps, g.snaps):
		return "snapshot digests differ between repetitions"
	}
	return ""
}

// batchSamples are the per-repetition measurements of a batch workload.
type batchSamples struct {
	setup, campaign []time.Duration
	rssKB           []float64
}

// finishBatch turns repetitions into the end-to-end metrics. The
// operation a batch client waits for is a whole campaign, so the req_*
// metrics describe campaigns: how many complete per second, and the
// median and tail of their wall times.
func finishBatch(res *result, s *batchSamples) {
	walls := durationsTo(s.campaign, millis)
	n := len(s.campaign)
	res.set(endToEnd, "setup_s", median(durationsTo(s.setup, seconds)), len(s.setup))
	res.set(endToEnd, "campaign_s", median(durationsTo(s.campaign, seconds)), n)
	res.set(endToEnd, "peak_rss_mb", median(s.rssKB)/1024, n)
	res.set(endToEnd, "req_per_s", float64(n)/seconds(sum(s.campaign)), n)
	res.set(endToEnd, "req_p50_ms", median(walls), n)
	res.set(endToEnd, "req_p99_ms", percentile(walls, 0.99), n)
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// measured reports whether enough timed work was done: the minimum
// repetitions and the requested measuring time.
func measured(ds []time.Duration, rc runConfig, minReps int) bool {
	return len(ds) >= maxReps || (len(ds) >= minReps && seconds(sum(ds)) >= rc.seconds)
}

// runMine times ixpmine over fresh ixpgen fixtures: each repetition
// generates the campaign (setup), mines it (timed: verify, decode,
// classify, observe, snapshot, churn, deep dive) and checks that the
// outcome is complete and identical to the first repetition's.
func runMine(e *env, w workload, rc runConfig) (*result, error) {
	res := newResult(e, w, rc, false)
	var s batchSamples
	var first *fingerprint
	for !measured(s.campaign, rc, w.MinReps) {
		dir, err := cleanup.tempDir(e.workDir, w.Name+"-*")
		if err != nil {
			return nil, err
		}
		gen, err := e.gen(w, rc.seed, dir)
		if err != nil {
			return nil, err
		}
		mine, err := runChild(e.ixpmine, "-in", dir)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, gen.Wall)
		s.campaign = append(s.campaign, mine.Wall)
		s.rssKB = append(s.rssKB, float64(mine.MaxRSSKB))

		man, err := capture.ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		weeks := len(man.Weeks)
		res.Attempted += weeks
		done, resumed, quarantined, ok := mineOutcome(mine.Stdout)
		if !ok || done != weeks || resumed != 0 || quarantined != 0 {
			res.Failed += weeks - done + quarantined
			res.fail("ixpmine: want %d done (0 resumed), 0 quarantined; got done=%d resumed=%d quarantined=%d",
				weeks, done, resumed, quarantined)
		}
		snaps, err := fileDigests(dir, "week-*.snap")
		if err != nil {
			return nil, err
		}
		if len(snaps) != weeks {
			res.fail("ixpmine left %d snapshots for %d weeks", len(snaps), weeks)
		}
		fp := &fingerprint{
			stdout:   string(reSupervised.ReplaceAll(mine.Stdout, []byte("supervised run"))),
			manifest: man.Digests,
			snaps:    snaps,
		}
		if first == nil {
			first = fp
		} else if d := first.diff(fp); d != "" {
			res.Failed += weeks
			res.fail("repetition %d: %s", len(s.campaign), d)
		}
		if err := cleanup.removeDir(dir); err != nil {
			return nil, err
		}
	}
	finishBatch(res, &s)
	return res, nil
}

// runWrite times ixpgen into fresh directories. ixpgen prints its
// "world:" line once the synthetic world is rebuilt, so the time to that
// line is the run's set-up and the whole invocation is the campaign.
func runWrite(e *env, w workload, rc runConfig) (*result, error) {
	res := newResult(e, w, rc, false)
	var s batchSamples
	var first []string
	for !measured(s.campaign, rc, w.MinReps) {
		dir, err := cleanup.tempDir(e.workDir, w.Name+"-*")
		if err != nil {
			return nil, err
		}
		gen, err := e.gen(w, rc.seed, dir)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, gen.FirstLine)
		s.campaign = append(s.campaign, gen.Wall)
		s.rssKB = append(s.rssKB, float64(gen.MaxRSSKB))

		man, err := capture.ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		weeks := man.Config.Weeks
		res.Attempted += weeks
		m := reWrote.FindSubmatch(gen.Stdout)
		if m == nil || string(m[1]) != strconv.Itoa(weeks) || len(man.Digests) != weeks {
			res.Failed += weeks
			res.fail("ixpgen did not report %d weeks written", weeks)
		}
		if first == nil {
			// The files are read back once; later repetitions are held to
			// the first through the digests ixpgen records while writing.
			first = man.Digests
			for i, f := range man.Files {
				if d, err := capture.FileDigestFS(vfs.Default, filepath.Join(dir, f)); err != nil || d != man.Digests[i] {
					res.Failed++
					res.fail("%s does not match its manifest digest (%v)", f, err)
				}
			}
		} else if !slices.Equal(first, man.Digests) {
			res.Failed += weeks
			res.fail("repetition %d: manifest capture digests differ between repetitions", len(s.campaign))
		}
		if err := cleanup.removeDir(dir); err != nil {
			return nil, err
		}
	}
	finishBatch(res, &s)
	return res, nil
}

// fixture is a generated and mined campaign with ixpserve running on it.
type fixture struct {
	dir   string
	man   *capture.Manifest
	srv   *server
	mine  *childRun
	setup time.Duration
}

// serveFixture prepares a serve workload's fixture: ixpgen, ixpmine,
// server start to the first /healthz 200, and the warm-up requests.
func (e *env) serveFixture(w workload, rc runConfig, clients []*http.Client) (*fixture, error) {
	start := time.Now()
	dir, err := cleanup.tempDir(e.workDir, w.Name+"-*")
	if err != nil {
		return nil, err
	}
	f := &fixture{dir: dir}
	if _, err = e.gen(w, rc.seed, dir); err != nil {
		return nil, err
	}
	if f.mine, err = runChild(e.ixpmine, "-in", dir); err != nil {
		return nil, err
	}
	if f.man, err = capture.ReadManifest(dir); err != nil {
		return nil, err
	}
	if f.srv, err = startServer(e.serve, dir, w.CacheWeeks); err != nil {
		return nil, err
	}
	if err := warmUp(f, w, clients); err != nil {
		f.srv.kill()
		return nil, err
	}
	f.setup = time.Since(start)
	return f, nil
}

// warmUp opens every client's connection. The warm workload also loads
// each week once so the timed requests find all of them resident; the
// cold workload must not load any, or its first requests would hit.
func warmUp(f *fixture, w workload, clients []*http.Client) error {
	for _, c := range clients {
		if _, err := mustGet(c, f.srv.base+"/weeks"); err != nil {
			return err
		}
	}
	if w.Cold {
		return nil
	}
	for _, wk := range f.man.Weeks {
		if _, err := mustGet(clients[0], f.srv.base+endpointURL("week", wk)); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and removes the fixture.
func (f *fixture) close() (drain, cpu time.Duration, rssKB int64, err error) {
	drain, cpu, rssKB, err = f.srv.stop()
	if rerr := cleanup.removeDir(f.dir); err == nil {
		err = rerr
	}
	return drain, cpu, rssKB, err
}

func (w workload) plan(rc runConfig, clients int, weeks []int) plan {
	if w.Cold {
		return coldPlan(clients, w.Requests, weeks)
	}
	return warmPlan(rc.seed, clients, w.Requests, weeks)
}

// referenceURLs are the URLs whose served bytes are compared with an
// in-process serve.Server over the same directory: one per endpoint the
// workload uses.
func (w workload) referenceURLs() []string {
	if w.Cold {
		return []string{endpointURL("week", focusWeek), endpointURL("servers", focusWeek)}
	}
	urls := make([]string, len(warmMix))
	for i, m := range warmMix {
		urls[i] = endpointURL(m.endpoint, focusWeek)
	}
	return urls
}

// inProcess answers one path from a serve.Server in this process.
func inProcess(s *serve.Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// checkReference compares the running server's bytes for each reference
// URL with serve.New(...).ServeHTTP over the same directory.
func checkReference(res *result, f *fixture, w workload, client *http.Client) error {
	store, err := serve.OpenStore(f.dir, false)
	if err != nil {
		return err
	}
	ref := serve.New(store, serve.Config{CacheWeeks: 32}, nil)
	defer ref.Close()
	if !w.Cold {
		// /weeks reports which weeks are resident; make the reference as
		// warm as the server under test.
		if code, body := inProcess(ref, "/churn"); code != http.StatusOK {
			return fmt.Errorf("in-process /churn: HTTP %d: %s", code, body)
		}
	}
	for _, u := range w.referenceURLs() {
		got, err := mustGet(client, f.srv.base+u)
		if err != nil {
			return err
		}
		code, want := inProcess(ref, u)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			res.fail("%s: served bytes differ from in-process serve.Server (HTTP %d)", u, code)
		}
	}
	return nil
}

// serveCounters are the /metrics values both the checks and the traced
// run read.
type serveCounters struct {
	hits, misses, loads, analyses, shed uint64
}

func (c serveCounters) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

func scrape(client *http.Client, base string) (serveCounters, error) {
	body, err := mustGet(client, base+"/metrics")
	if err != nil {
		return serveCounters{}, err
	}
	o, err := parseObsText(bytes.NewReader(body))
	if err != nil {
		return serveCounters{}, err
	}
	return serveCounters{
		hits:     o.Counters["serve_cache_hits_total"],
		misses:   o.Counters["serve_cache_misses_total"],
		loads:    o.Counters["serve_snapshot_loads_total"],
		analyses: o.Counters["serve_analyses_total"],
		shed:     o.Counters["serve_shed_total"],
	}, nil
}

// checkCounters asserts the cache behaved as the workload intends: warm
// loads each week exactly once and then only hits, cold never hits, and
// neither falls back to analysis or sheds load.
func checkCounters(res *result, c serveCounters, w workload, rc runConfig, weeks int) {
	if c.analyses != 0 || c.shed != 0 {
		res.fail("serve_analyses_total=%d serve_shed_total=%d, want 0 and 0", c.analyses, c.shed)
	}
	switch {
	case w.Cold && c.hitRatio() > 0.01:
		res.fail("cache hit ratio %.4f on the cold workload, want <= 0.01", c.hitRatio())
	case !w.Cold && c.misses != uint64(weeks):
		res.fail("%d cache misses on the warm workload, want one per week (%d)", c.misses, weeks)
	case !w.Cold && !rc.smoke && c.hitRatio() < 0.99:
		res.fail("cache hit ratio %.4f on the warm workload, want >= 0.99", c.hitRatio())
	}
}

// runServe times closed-loop requests against ixpserve over
// setupRepeats server lifetimes: each prepares the fixture afresh (a
// setup_s sample), serves its share of the timed passes — every pass a
// replay of the workload's seeded plan — and drains (a peak_rss_mb
// sample). Latencies pool over all lifetimes.
func runServe(e *env, w workload, rc runConfig) (*result, error) {
	res := newResult(e, w, rc, false)
	clients := newClients(e.host.Clients)
	defer closeClients(clients)
	share := rc
	share.seconds = rc.seconds / setupRepeats
	minPasses := (w.MinReps + setupRepeats - 1) / setupRepeats

	var setups, walls, lat []time.Duration
	var rssKB []float64
	book := newBodyBook()
	for i := 0; i < setupRepeats; i++ {
		f, err := e.serveFixture(w, rc, clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, f.setup)
		weeks := len(f.man.Weeks)
		if done, resumed, q, ok := mineOutcome(f.mine.Stdout); !ok || done != weeks || resumed != 0 || q != 0 {
			res.fail("fixture: ixpmine did not complete the campaign (done=%d resumed=%d quarantined=%d)", done, resumed, q)
		}
		p := w.plan(rc, len(clients), f.man.Weeks)
		var mine []time.Duration
		for !measured(mine, share, minPasses) {
			ps := runPass(clients, f.srv.base, p, book)
			mine = append(mine, ps.wall)
			lat = append(lat, ps.lat...)
			res.Attempted += len(ps.lat)
			if ps.failed > 0 {
				res.Failed += ps.failed
				res.fail("server %d pass %d: %d failed requests, first: %s", i+1, len(mine), ps.failed, ps.firstE)
			}
		}
		walls = append(walls, mine...)

		counters, err := scrape(clients[0], f.srv.base)
		if err == nil {
			checkCounters(res, counters, w, rc, weeks)
			if i == setupRepeats-1 {
				err = checkReference(res, f, w, clients[0])
			}
		}
		if err != nil {
			f.srv.kill()
			return nil, err
		}
		closeClients(clients)
		_, _, kb, err := f.close()
		if err != nil {
			return nil, err
		}
		rssKB = append(rssKB, float64(kb))
	}

	ms := durationsTo(lat, millis)
	res.set(endToEnd, "setup_s", median(durationsTo(setups, seconds)), len(setups))
	res.set(endToEnd, "campaign_s", median(durationsTo(walls, seconds)), len(walls))
	res.set(endToEnd, "peak_rss_mb", median(rssKB)/1024, len(rssKB))
	res.set(endToEnd, "req_per_s", float64(len(lat))/seconds(sum(walls)), len(lat))
	res.set(endToEnd, "req_p50_ms", median(ms), len(ms))
	res.set(endToEnd, "req_p99_ms", percentile(ms, 0.99), len(ms))
	return res, nil
}

// runEndToEnd dispatches on the workload's kind.
func runEndToEnd(e *env, w workload, rc runConfig) (*result, error) {
	switch w.Kind {
	case kindMine:
		return runMine(e, w, rc)
	case kindWrite:
		return runWrite(e, w, rc)
	default:
		return runServe(e, w, rc)
	}
}

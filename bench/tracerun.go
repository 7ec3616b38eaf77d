package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/supervise"
)

// The traced run. It repeats a workload's chain once with the programs'
// own metrics on — ixpmine -debug-addr, ixpserve /metrics — to harvest
// counts at their boundaries, then runs the in-process layer driver over
// the same fixture. End-to-end metrics are never taken from it.

const httpOverheadSamples = 101

// resetMined removes what ixpmine wrote, so the next run mines again.
func resetMined(dir string) error {
	for _, pattern := range []string{"week-*.snap", supervise.JournalName + "*"} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedChild runs a binary inside a span.
func tracedChild(tr *tracer, root int, span, bin string, args ...string) (*childRun, error) {
	id := tr.begin(span, root, 0)
	r, err := runChild(bin, args...)
	tr.end(id)
	return r, err
}

func runTrace(e *env, w workload, rc runConfig, traceDir string) (*result, error) {
	res := newResult(e, w, rc, true)
	tr := newTracer(w.Name)
	root := tr.begin("bench.trace", 0, 0)

	dir, err := cleanup.tempDir(e.workDir, w.Name+"-trace-*")
	if err != nil {
		return nil, err
	}
	defer cleanup.removeDir(dir)

	// The chain's binaries: write, mine untraced, mine traced, resume.
	id := tr.begin("process.ixpgen", root, 0)
	gen, err := e.gen(w, rc.seed, dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	plain, err := tracedChild(tr, root, "process.ixpmine", e.ixpmine, "-in", dir)
	if err != nil {
		return nil, err
	}
	if err := resetMined(dir); err != nil {
		return nil, err
	}
	traced, err := tracedChild(tr, root, "process.ixpmine.traced", e.ixpmine, "-in", dir, "-debug-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	resume, err := tracedChild(tr, root, "process.ixpmine.resume", e.ixpmine, "-in", dir)
	if err != nil {
		return nil, err
	}
	man, err := capture.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	weeks := len(man.Weeks)
	res.Attempted += 3 * weeks
	for _, m := range []struct {
		name        string
		run         *childRun
		wantResumed int
	}{{"ixpmine", plain, 0}, {"ixpmine -debug-addr", traced, 0}, {"ixpmine rerun", resume, weeks}} {
		done, resumed, q, ok := mineOutcome(m.run.Stdout)
		if !ok || done != weeks || resumed != m.wantResumed || q != 0 {
			res.Failed += weeks
			res.fail("%s: want %d done (%d resumed), 0 quarantined; got done=%d resumed=%d quarantined=%d",
				m.name, weeks, m.wantResumed, done, resumed, q)
		}
	}
	mined, err := parseObsText(bytes.NewReader(traced.Stderr))
	if err != nil {
		return nil, err
	}

	// The serving tier: a short pass of the workload's own plan (the
	// warm mix for the batch workloads), then sequential /weeks requests
	// for the socket overhead, the /metrics scrape, and the drain.
	clients := newClients(e.host.Clients)
	defer closeClients(clients)
	sw := w
	if w.Kind != kindServe {
		warm, _ := findWorkload("serve-warm")
		if rc.smoke {
			warm = smokeSized(warm)
		}
		sw.CacheWeeks, sw.Requests = warm.CacheWeeks, warm.Requests
	}
	id = tr.begin("process.ixpserve", root, 0)
	srv, err := startServer(e.serve, dir, sw.CacheWeeks)
	if err != nil {
		return nil, err
	}
	fix := &fixture{dir: dir, man: man, srv: srv}
	ps, counters, weeksLat, err := traceServe(fix, sw, rc, clients)
	if err != nil {
		srv.kill()
		return nil, err
	}
	closeClients(clients)
	drain, serveCPU, _, err := srv.stop()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(ps.lat)
	if ps.failed > 0 {
		res.Failed += ps.failed
		res.fail("%d failed requests, first: %s", ps.failed, ps.firstE)
	}
	checkCounters(res, counters, sw, rc, weeks)

	if err := runLayers(tr, root, dir, e.host.Clients, res); err != nil {
		return nil, err
	}
	tr.end(root)

	// Counts harvested at the programs' own boundaries.
	hits, misses := mined.Counters["entity_intern_hits_total"], mined.Counters["entity_intern_misses_total"]
	if hits+misses == 0 {
		res.fail("ixpmine -debug-addr printed no entity_intern counters")
	} else {
		res.set(perLayer, "entity.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	res.set(perLayer, "entity.table_ips", float64(mined.Gauges["entity_table_ips"]), 1)
	stages := mined.Hists["supervise_stage_ns"]
	stageMS := float64(stages.Sum) / 1e6
	res.set(perLayer, "supervise.stage_ms_sum", stageMS, int(stages.Count))
	res.set(perLayer, "supervise.retries", float64(mined.Counters["supervise_retries_total"]), 1)
	overhead := millis(plain.Wall) - res.Metrics["netmodel.newenv_ms"].Value - stageMS
	res.set(perLayer, "supervise.overhead_ms_per_week", overhead/float64(weeks), weeks)
	res.set(perLayer, "supervise.resume_s", seconds(resume.Wall), 1)

	res.set(perLayer, "serve.cache_hit_ratio", counters.hitRatio(), int(counters.hits+counters.misses))
	res.set(perLayer, "serve.snapshot_loads", float64(counters.loads), 1)
	res.set(perLayer, "serve.analyses", float64(counters.analyses), 1)
	res.set(perLayer, "serve.shed", float64(counters.shed), 1)
	socket := median(durationsTo(weeksLat, micros))
	res.set(perLayer, "serve.http_overhead_us", socket-res.Metrics["serve.handler_us.weeks"].Value, len(weeksLat))

	// The binary the workload times.
	cpu := plain.CPU
	switch w.Kind {
	case kindWrite:
		cpu = gen.CPU
	case kindServe:
		cpu = serveCPU
	}
	res.set(perLayer, "process.cpu_s", seconds(cpu), 1)
	res.set(perLayer, "process.drain_s", seconds(drain), 1)
	res.set(perLayer, "trace.overhead_pct", 100*(seconds(traced.Wall)-seconds(plain.Wall))/seconds(plain.Wall), 1)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(traceDir, "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", d.Name)
		}
	}
	return res, nil
}

// traceServe is the traced run's request phase against a live server.
func traceServe(f *fixture, w workload, rc runConfig, clients []*http.Client) (pass, serveCounters, []time.Duration, error) {
	if err := warmUp(f, w, clients); err != nil {
		return pass{}, serveCounters{}, nil, err
	}
	ps := runPass(clients, f.srv.base, w.plan(rc, len(clients), f.man.Weeks), newBodyBook())
	weeksLat := make([]time.Duration, 0, httpOverheadSamples)
	for i := 0; i < httpOverheadSamples; i++ {
		t0 := time.Now()
		if _, err := mustGet(clients[0], f.srv.base+"/weeks"); err != nil {
			return pass{}, serveCounters{}, nil, err
		}
		weeksLat = append(weeksLat, time.Since(t0))
	}
	counters, err := scrape(clients[0], f.srv.base)
	return ps, counters, weeksLat, err
}

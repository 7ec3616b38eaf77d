package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all five workloads end to end and then the traced run
// with the layer driver, at the -smoke sizes, with every correctness
// check on. It keeps the harness compiling against the layers' public
// API and honest about what it reports; it measures nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	e, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now() // the budget is for the runs, not for go build
	t.Cleanup(func() {
		if n := cleanup.sweep(); n > 0 {
			t.Errorf("%d child processes left running", n)
		}
	})
	rc := runConfig{seed: 7, smoke: true}
	traceDir := t.TempDir()
	for _, w := range workloads {
		w := smokeSized(w)
		res, err := runEndToEnd(e, w, rc)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit || m.N < 1 {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, catalogue has %d", w.Name, len(res.Metrics), len(endToEnd))
		}

		tres, err := runTrace(e, w, rc, traceDir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !tres.Correct {
			t.Errorf("%s traced: %v", w.Name, tres.Problems)
		}
		if len(tres.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics reported, catalogue has %d", w.Name, len(tres.Metrics), len(perLayer))
		}
		if !tres.Metrics["dissect.sharded_ns_per_sample.wN"].Oversubscribed == (e.host.Clients+1 > e.host.NProc) {
			t.Errorf("%s traced: oversubscribed flag does not match the host (%d workers, %d cores)", w.Name, e.host.Clients, e.host.NProc)
		}
		if st, err := os.Stat(filepath.Join(traceDir, "trace-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s traced: no span file: %v", w.Name, err)
		}
	}
	if n := len(cleanup.dirs); n != 0 {
		t.Errorf("%d fixture directories left in %s", n, e.workDir)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, budget 15s", d)
	}
}

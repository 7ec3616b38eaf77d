package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compare reads two -out files, each a series of end-to-end runs, and
// judges every workload x end-to-end metric: both medians and quartiles,
// the ratio with its base, and a verdict.
//
//	improved    the new side wins at least 9/10 of the pairs (run i of
//	            one file against run i of the other; ties count for
//	            neither) and the medians differ by more than the old
//	            side's inter-quartile distance
//	regressed   the new median is worse than the old by more than the
//	            metric's bound, and either the run-to-run spread is within
//	            the bound or the old side wins by the rule above
//	unresolved  the run-to-run spread exceeds the bound, so neither
//	            "regressed" nor "unchanged" can be said
//	unchanged   otherwise

// series is one workload's values for one metric, in run order.
type series map[string]map[string][]float64

func readSeries(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace || r.Smoke {
			continue // per-layer and smoke runs carry no end-to-end numbers
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: %s run failed its correctness checks; it cannot be compared", path, line, r.Workload)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// judgement is one row of the comparison.
type judgement struct {
	oldMed, newMed      float64
	oldQ1, oldQ3        float64
	newQ1, newQ3        float64
	ratio               float64 // new median / old median
	spread              float64 // widest inter-quartile distance / old median
	wins, losses, pairs int
	verdict             string
}

// judge applies the rules above to one metric's two series.
func judge(def metricDef, old, new []float64) judgement {
	j := judgement{oldMed: median(old), newMed: median(new)}
	j.oldQ1, j.oldQ3 = quartiles(old)
	j.newQ1, j.newQ3 = quartiles(new)
	j.ratio = j.newMed / j.oldMed
	oldIQR, newIQR := j.oldQ3-j.oldQ1, j.newQ3-j.newQ1
	j.spread = math.Max(oldIQR, newIQR) / math.Abs(j.oldMed)

	better := func(a, b float64) bool { // a better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j.pairs = len(old)
	if len(new) < j.pairs {
		j.pairs = len(new)
	}
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(new[i], old[i]):
			j.wins++
		case better(old[i], new[i]):
			j.losses++
		}
	}
	clear := math.Abs(j.newMed-j.oldMed) > oldIQR
	decisive := func(n int) bool { return j.pairs > 0 && 10*n >= 9*j.pairs && clear }
	worseBy := (j.newMed - j.oldMed) / math.Abs(j.oldMed)
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case decisive(j.wins) && better(j.newMed, j.oldMed):
		j.verdict = "improved"
	case worseBy > def.Bound && (j.spread <= def.Bound || decisive(j.losses)):
		j.verdict = "regressed"
	case j.spread > def.Bound:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// compareMain is `bench compare OLD NEW`; it returns the exit code, 1 on
// any regressed metric.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	old, err := readSeries(args[0])
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("%s holds no end-to-end runs", args[0])
	}
	var new series
	if err == nil {
		new, err = readSeries(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-12s %5s  %-34s %-34s %-22s %s\n",
		"workload", "metric", "pairs", "old median [q1, q3]", "new median [q1, q3]", "new/old (base)", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			o, n := old[wl.Name][def.Name], new[wl.Name][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			j := judge(def, o, n)
			if j.verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-12s %5d  %-34s %-34s %-22s %s (won %d, lost %d; spread %.1f%%, bound %.0f%%)\n",
				wl.Name, def.Name, j.pairs,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", j.oldMed, j.oldQ1, j.oldQ3, def.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", j.newMed, j.newQ1, j.newQ3, def.Unit),
				fmt.Sprintf("%.3f (of %.4g %s)", j.ratio, j.oldMed, def.Unit),
				j.verdict, j.wins, j.losses, 100*j.spread, 100*def.Bound)
		}
	}
	return code
}

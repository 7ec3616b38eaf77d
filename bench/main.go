// Command bench is the one benchmark for the ixplens chain: it drives
// the real binaries (ixpgen, ixpmine, ixpserve) for the end-to-end
// numbers and, in a separate traced run, calls each layer's public
// functions in-process over the same fixture for the per-layer numbers.
// bench/README.md has the catalogues; BENCHMARK.json at the repository
// root names this package for the benchmark driver.
//
// Usage:
//
//	bench -workload NAME [-seed 7] [-seconds 10] [-trace 1] [-smoke] [-out results.jsonl]
//	bench -all [...]
//	bench compare OLD.jsonl NEW.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		all     = flag.Bool("all", false, "run every workload")
		seed    = flag.Int64("seed", 7, "world seed and request-sequence seed")
		secs    = flag.Float64("seconds", 10, "repeat the timed work until this many seconds of it were measured")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.jsonl instead of end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes, one repetition: checks the harness, measures nothing")
		outPath = flag.String("out", "", "append each result as one JSON line to this file; trace files go next to it")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*name == "") == !*all || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench (-workload NAME | -all) [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-out FILE]")
		fmt.Fprintln(os.Stderr, "       bench compare OLD.jsonl NEW.jsonl")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *secs, smoke: *smoke}
	if rc.smoke {
		rc.seconds = 0
	}
	os.Exit(run(*name, rc, *trace == 1, *outPath))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// run executes the selected workloads and returns the exit code: 0 only
// if every run finished and passed every correctness check.
func run(name string, rc runConfig, trace bool, outPath string) int {
	sweepOnSignal()
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}
	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		res, err := runOne(e, w, rc, trace, outPath)
		if leftovers := cleanup.sweep(); leftovers > 0 && err == nil {
			err = fmt.Errorf("%d child processes were still running at the end of the run", leftovers)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload, prints the readable table and then the
// result line the benchmark driver parses, and appends to the -out file.
func runOne(e *env, w workload, rc runConfig, trace bool, outPath string) (*result, error) {
	if rc.smoke {
		w = smokeSized(w)
	}
	var res *result
	var err error
	if trace {
		traceDir := filepath.Join(e.root, ".bench_build")
		if outPath != "" {
			traceDir = filepath.Dir(outPath)
		}
		res, err = runTrace(e, w, rc, traceDir)
	} else {
		res, err = runEndToEnd(e, w, rc)
	}
	if err != nil {
		return nil, err
	}
	printTable(res)
	if outPath != "" {
		if err := appendResult(outPath, res); err != nil {
			return nil, err
		}
	}
	// The driver's line: exactly these keys, every metric of the
	// selected catalogue with value and unit only.
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = driverMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	return res, nil
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every metric by name with unit and sample count.
func printTable(res *result) {
	h := res.Host
	mode := "end-to-end"
	if res.Trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("== %s (%s) seed=%d\n", res.Workload, mode, res.Seed)
	fmt.Printf("host: commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d binary_workers=%d serial_fallback=%v clients=%d fs=%s build_s=%.3f\n",
		h.Commit, h.GoVersion, h.CPUModel, h.NProc, h.GOMAXPROCS, h.BinaryWorkers, h.SerialFallback, h.Clients, h.FSType, h.BuildS)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		flag := ""
		if m.Oversubscribed {
			flag = "  oversubscribed: more workers than idle cores, not a scaling result"
		}
		fmt.Printf("  %-44s %14.4f %-6s n=%d%s\n", k, m.Value, m.Unit, m.N, flag)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-44s %14.4f %-6s n=%d\n", "failed_share", share, "ratio", res.Attempted)
	for _, p := range res.Problems {
		fmt.Println("  FAILED CHECK:", p)
	}
}

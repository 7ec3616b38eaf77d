package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p of the samples at or below it, rank = ceil(p*n). At small n
// the rank rounds up, so p99 of fewer than 100 samples is the maximum —
// the highest percentile such a sample supports.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps an exact product such as 0.99*200 from landing
	// one rank high through floating-point error.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spreads
// compare prints are the ones the benchmark contract is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

func durationsTo(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// obsHist is the part of an obs histogram line the harness uses.
type obsHist struct {
	Count uint64
	Sum   uint64
}

// obsText is a parsed obs.Registry.WriteText dump: the format ixpserve
// answers on /metrics and ixpmine -debug-addr prints at exit.
type obsText struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]obsHist
}

// parseObsText reads the "counter|gauge|hist <name> <value...>" lines of
// an obs text dump and skips everything else, so it can be handed a
// whole stderr capture.
func parseObsText(r io.Reader) (*obsText, error) {
	out := &obsText{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]obsHist{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter":
			v, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs text: counter %s: %w", f[1], err)
			}
			out.Counters[f[1]] = v
		case "gauge":
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs text: gauge %s: %w", f[1], err)
			}
			out.Gauges[f[1]] = v
		case "hist":
			var h obsHist
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					continue
				}
				switch k {
				case "count", "sum":
					n, err := strconv.ParseUint(v, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("obs text: hist %s %s: %w", f[1], k, err)
					}
					if k == "count" {
						h.Count = n
					} else {
						h.Sum = n
					}
				}
			}
			out.Hists[f[1]] = h
		}
	}
	return out, sc.Err()
}

package ixplens_test

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/ixp"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/serve"
	"ixplens/internal/supervise"
)

// registeredMetrics is every metric name the packages' metric bundles
// register, each bundle built on one fresh registry.
func registeredMetrics() []string {
	reg := obs.NewRegistry()
	serve.NewMetrics(reg)
	supervise.NewMetrics(reg)
	pipeline.NewMetrics(reg)
	ixp.NewCollectorMetrics(reg)
	entity.NewMetrics(reg)
	webserver.NewMetrics(reg)
	dissect.NewMetrics(reg)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	var names []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 {
			names = append(names, f[1])
		}
	}
	slices.Sort(names)
	return names
}

// catalogueName is a backquoted metric name in the first column of a
// DESIGN.md §8 catalogue row; a label may list its values separated by
// `\|` (an escaped pipe), one metric per value.
var catalogueName = regexp.MustCompile("`([a-z0-9_]+)(?:\\{([a-z]+)=([^}`]+)\\})?`")

// documentedMetrics is every metric name DESIGN.md §8's catalogue tables
// list in a row's first column.
func documentedMetrics(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "\n## 8. ")
	end := strings.Index(text, "\n## 9. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §8")
	}
	var names []string
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.ReplaceAll(strings.TrimSpace(line), `\|`, "\x00")
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, m := range catalogueName.FindAllStringSubmatch(first, -1) {
			if m[2] == "" {
				names = append(names, m[1])
				continue
			}
			for _, v := range strings.Split(m[3], "\x00") {
				names = append(names, m[1]+"{"+m[2]+"="+v+"}")
			}
		}
	}
	slices.Sort(names)
	return names
}

// TestMetricCatalogue: DESIGN.md §8 lists exactly the metrics the code
// registers — none missing, none stale.
func TestMetricCatalogue(t *testing.T) {
	have, doc := registeredMetrics(), documentedMetrics(t)
	for _, name := range have {
		if _, ok := slices.BinarySearch(doc, name); !ok {
			t.Errorf("metric %s is registered but missing from DESIGN.md §8", name)
		}
	}
	for _, name := range doc {
		if _, ok := slices.BinarySearch(have, name); !ok {
			t.Errorf("DESIGN.md §8 lists %s, which no metric bundle registers", name)
		}
	}
}

package pipeline_test

import (
	"context"
	"reflect"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	. "ixplens/internal/pipeline"
)

// identifyOver runs dissection + identification over a datagram
// source, the way the buffered path does: a webserver-only analysis run
// on the driver's serial reference.
func identifyOver(t *testing.T, env *Env, src dissect.DatagramSource, isoWeek int) (dissect.Counts, *webserver.Result) {
	t.Helper()
	reg, err := analysis.Select(analysis.NameWebserver)
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(env.AnalysisContext(), 1)
	counts, err := dissect.ProcessSharded(context.Background(), src, env.Fabric, 1, run.Observe, nil)
	if err != nil {
		t.Fatal(err)
	}
	prods, err := run.Finish(isoWeek)
	if err != nil {
		t.Fatal(err)
	}
	return counts, prods.Webserver()
}

// sameServers fails unless the two identification results are
// byte-identical where it matters: same IP set, same per-server traffic.
func sameServers(t *testing.T, a, b *webserver.Result) {
	t.Helper()
	if len(a.Servers) != len(b.Servers) {
		t.Fatalf("server sets differ: %d vs %d", len(a.Servers), len(b.Servers))
	}
	for ip, sa := range a.Servers {
		sb, ok := b.Servers[ip]
		if !ok {
			t.Fatalf("server %v missing from second set", ip)
		}
		if sa.Bytes != sb.Bytes || sa.HTTPS != sb.HTTPS || sa.Member != sb.Member {
			t.Fatalf("server %v diverged: %+v vs %+v", ip, sa, sb)
		}
	}
	if a.ServerBytes != b.ServerBytes || a.Candidates443 != b.Candidates443 ||
		a.Valid443 != b.Valid443 || a.TotalIPs != b.TotalIPs {
		t.Fatalf("result aggregates diverged:\n%+v\n%+v", a, b)
	}
}

// TestStreamMatchesBuffered is the acceptance gate of the streaming
// path: a streamed AnalyzeWeek must produce byte-identical counts and
// server sets to dissecting a buffered copy of the week.
func TestStreamMatchesBuffered(t *testing.T) {
	env := newEnv(t)
	buf, bufTruth := BufferWeek(t, env, 45)
	bufCounts, bufRes := identifyOver(t, env, buf.Source(), 45)

	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bufTruth, wk.Truth) {
		t.Fatalf("ground truth diverged:\nbuffered  %+v\nstreaming %+v", bufTruth, wk.Truth)
	}
	if bufCounts != wk.Counts {
		t.Fatalf("counts diverged:\nbuffered  %+v\nstreaming %+v", bufCounts, wk.Counts)
	}
	sameServers(t, bufRes, wk.Servers)
}

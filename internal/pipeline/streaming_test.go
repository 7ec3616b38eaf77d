package pipeline_test

import (
	"context"
	"testing"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	. "ixplens/internal/pipeline"
	"ixplens/internal/sflow"
)

// identifyOver runs dissection + identification over a rewindable
// source, the way the buffered path does.
func identifyOver(t *testing.T, env *Env, src dissect.RewindableSource, isoWeek int) (dissect.Counts, *webserver.Result) {
	t.Helper()
	ident := webserver.NewIdentifier()
	counts, err := dissect.ProcessSharded(context.Background(), src, env.Fabric, 1, ident.ObserveShard, nil)
	if err != nil {
		t.Fatal(err)
	}
	return counts, ident.Identify(isoWeek, env.Crawler)
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
// server sets to dissecting a buffered CaptureWeek source.
func TestStreamMatchesBuffered(t *testing.T) {
	env := newEnv(t)
	src, bufTruth, err := env.CaptureWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	bufCounts, bufRes := identifyOver(t, env, src, 45)

	wk, _, err := env.AnalyzeWeek(context.Background(), 45, nil)
	if err != nil {
		t.Fatal(err)
	}

	if bufTruth != wk.Truth {
		t.Fatalf("ground truth diverged:\nbuffered  %+v\nstreaming %+v", bufTruth, wk.Truth)
	}
	if bufCounts != wk.Counts {
		t.Fatalf("counts diverged:\nbuffered  %+v\nstreaming %+v", bufCounts, wk.Counts)
	}
	sameServers(t, bufRes, wk.Servers)
}

// TestReplayDeterminism sweeps the same week twice through a
// ReplaySource: both passes must yield identical counts and server sets.
func TestReplayDeterminism(t *testing.T) {
	env := newEnv(t)
	c1, r1 := identifyOver(t, env, env.Replay(45), 45)
	c2, r2 := identifyOver(t, env, env.Replay(45), 45)
	if c1 != c2 {
		t.Fatalf("replay counts diverged:\n%+v\n%+v", c1, c2)
	}
	if c1.Total == 0 {
		t.Fatal("replay produced no samples")
	}
	sameServers(t, r1, r2)

	// And a replay must match the buffered capture of the same week.
	src, _, err := env.CaptureWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	cb, rb := identifyOver(t, env, src, 45)
	if cb != c1 {
		t.Fatalf("replay differs from buffered capture:\n%+v\n%+v", c1, cb)
	}
	sameServers(t, r1, rb)
}

// TestReplayResetMidStream abandons a pass partway; Reset must abort the
// producer and restart from the beginning.
func TestReplayResetMidStream(t *testing.T) {
	env := newEnv(t)
	src := env.Replay(45)

	full, _ := identifyOver(t, env, env.Replay(45), 45)

	var d sflow.Datagram
	for i := 0; i < 5; i++ {
		if err := src.Next(&d); err != nil {
			t.Fatal(err)
		}
	}
	src.Reset()
	counts, err := dissect.ProcessSharded(context.Background(), src, env.Fabric, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts != full {
		t.Fatalf("post-reset pass incomplete:\n%+v\n%+v", counts, full)
	}
	src.Close()
}

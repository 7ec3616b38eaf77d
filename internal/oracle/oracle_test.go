package oracle

import (
	"context"
	"testing"

	"ixplens/internal/core/webserver"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

// TestServersCountsSets pins the scoring on a hand-built world: five
// servers, three of them sampled, and a result naming two sampled
// servers, one never-sampled server and one IP that is no server at all.
func TestServersCountsSets(t *testing.T) {
	ip := func(last byte) packet.IPv4Addr { return packet.MakeIPv4(10, 0, 0, last) }
	world := &netmodel.World{Servers: []netmodel.Server{{IP: ip(1)}, {IP: ip(2)}, {IP: ip(3)}, {IP: ip(4)}, {IP: ip(5)}}}
	res := &webserver.Result{Servers: map[packet.IPv4Addr]*webserver.Server{}}
	for _, last := range []byte{1, 2, 5, 99} {
		res.Servers[ip(last)] = &webserver.Server{IP: ip(last)}
	}
	got := Servers(world, []int32{0, 1, 2}, res)
	want := ServerScore{
		Identified: 4, TruePositives: 3, Precision: 0.75,
		Sampled: 3, Found: 2, Recall: 2.0 / 3,
		MissedUnsampled: 1, MissedSampled: 1,
	}
	if got != want {
		t.Fatalf("score %+v, want %+v", got, want)
	}
	if empty := Servers(world, nil, &webserver.Result{}); empty.Precision != 0 || empty.Recall != 0 || empty.MissedUnsampled != 5 {
		t.Fatalf("empty result and sample: %+v", empty)
	}
}

// Floors of the identification score on the Tiny world's week 45 with
// the default traffic options, chosen on seed 7 (precision 1, recall
// 1217 of 1515 = 0.803) and checked on seeds 11 and 23. A floor may only
// be raised.
const (
	precisionFloor = 1.0
	recallFloor    = 0.78
)

// TestServerScoreOnTinyWorld scores a week analysed through the pipeline
// against the world that generated it.
func TestServerScoreOnTinyWorld(t *testing.T) {
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	sc := Servers(env.World, wk.Truth.Sampled, wk.Servers)
	t.Logf("precision %d/%d = %.3f; recall %d/%d = %.3f; missed %d never sampled, %d sampled",
		sc.TruePositives, sc.Identified, sc.Precision, sc.Found, sc.Sampled, sc.Recall,
		sc.MissedUnsampled, sc.MissedSampled)
	if sc.Precision < precisionFloor {
		t.Errorf("precision %.3f below the %.2f floor", sc.Precision, precisionFloor)
	}
	if sc.Recall < recallFloor {
		t.Errorf("recall %.3f below the %.2f floor", sc.Recall, recallFloor)
	}
	if sc.Sampled != wk.Truth.SampledServers() || sc.MissedSampled != sc.Sampled-sc.Found ||
		sc.Found+sc.MissedSampled+sc.MissedUnsampled > len(env.World.Servers) {
		t.Errorf("inconsistent score %+v for %d sampled of %d servers",
			sc, wk.Truth.SampledServers(), len(env.World.Servers))
	}
}

package blindspot_test

import (
	"context"
	"testing"

	. "ixplens/internal/core/blindspot"
	"ixplens/internal/ispview"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

var (
	cachedEnv *pipeline.Env
	cachedWk  *pipeline.Week
)

func analyzed(t testing.TB) (*pipeline.Env, *pipeline.Week) {
	t.Helper()
	if cachedEnv != nil {
		return cachedEnv, cachedWk
	}
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	cachedEnv, cachedWk = env, wk
	return env, wk
}

func ixpServerSet(wk *pipeline.Week) map[packet.IPv4Addr]bool {
	out := make(map[packet.IPv4Addr]bool, len(wk.Servers.Servers))
	for ip := range wk.Servers.Servers {
		out[ip] = true
	}
	return out
}

func TestAlexaRecoveryGradient(t *testing.T) {
	env, wk := analyzed(t)
	list := env.AlexaList(45)
	observed := ObservedDomains(wk.Servers)
	if len(observed) == 0 {
		t.Fatal("no domains observed")
	}
	nSites := len(list.Domains)
	rates := RecoveryRates(list, observed, []int{nSites / 100, nSites / 10, nSites})
	// The paper's gradient: popular sites recover far better (80% of
	// the top-1K vs 20% of the top-1M).
	top1 := rates[nSites/100]
	top10 := rates[nSites/10]
	all := rates[nSites]
	if !(top1 >= top10 && top10 >= all) {
		t.Fatalf("recovery not monotone in popularity: %.2f %.2f %.2f", top1, top10, all)
	}
	if top1 < 0.5 {
		t.Fatalf("top-percentile recovery %.2f too low", top1)
	}
	if all > 0.8 {
		t.Fatalf("full-list recovery %.2f suspiciously high", all)
	}
}

func TestDiscoverFindsMoreServers(t *testing.T) {
	env, wk := analyzed(t)
	list := env.AlexaList(45)
	observed := ObservedDomains(wk.Servers)
	ixpSet := ixpServerSet(wk)

	// Query the domains NOT recovered at the IXP (capped for test time).
	var uncovered []string
	for _, d := range list.Domains {
		if !observed[d] {
			uncovered = append(uncovered, d)
		}
		if len(uncovered) >= 400 {
			break
		}
	}
	if len(uncovered) == 0 {
		t.Skip("everything recovered in tiny world")
	}
	disc := Discover(env.DNS, uncovered, 20, ixpSet, 1)
	if len(disc.Discovered) == 0 {
		t.Fatal("active measurement discovered nothing")
	}
	// Most discovered servers overlap the IXP view (the paper: 360K of
	// 600K), but some must be new.
	if disc.AlreadyAtIXP == 0 {
		t.Fatal("no overlap with IXP servers")
	}
	if disc.AlreadyAtIXP == len(disc.Discovered) {
		t.Fatal("active measurement found nothing beyond the IXP")
	}
}

func TestISPComparison(t *testing.T) {
	env, wk := analyzed(t)
	ispAS, err := ispview.PickISP(env.World)
	if err != nil {
		t.Fatal(err)
	}
	if env.World.ASes[ispAS].MemberWeek != 0 {
		t.Fatal("ISP must not be an IXP member")
	}
	log := ispview.Observe(env.World, env.DNS, ispAS, 45, 30000)
	if len(log.ServerIPs) < 50 {
		t.Fatalf("ISP saw only %d servers", len(log.ServerIPs))
	}
	cmp := ispview.CompareWithIXP(log, ixpServerSet(wk))
	if cmp.ISPServers != cmp.SeenAtIXP+cmp.NotAtIXP {
		t.Fatal("comparison does not partition")
	}
	// Paper: only a small share of ISP-seen servers (45K) is missing at
	// the IXP; the bulk overlaps.
	if cmp.SeenAtIXP == 0 {
		t.Fatal("no overlap between ISP and IXP views")
	}
	notShare := float64(cmp.NotAtIXP) / float64(cmp.ISPServers)
	if notShare > 0.6 {
		t.Fatalf("ISP-only share %.2f too high", notShare)
	}
	if cmp.NotAtIXP == 0 {
		t.Fatal("ISP view adds nothing — private clusters missing")
	}
}

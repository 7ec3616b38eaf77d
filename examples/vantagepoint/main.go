// Vantagepoint reproduces Section 3 ("local yet global"): it measures
// how much of the synthetic Internet the IXP "sees" in one week — IPs,
// prefixes, ASes and countries for both peering and server traffic
// (Table 1), the top contributors (Table 2), the A(L)/A(M)/A(G)
// breakdown (Table 3), and the blind spots bounded by IXP-external
// measurements (§3.3).
//
//	go run ./examples/vantagepoint
package main

import (
	"context"
	"fmt"
	"log"

	"ixplens/internal/core/blindspot"
	"ixplens/internal/core/visibility"
	"ixplens/internal/netmodel"
	"ixplens/internal/oracle"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

func main() {
	cfg := netmodel.Tiny()
	env, err := pipeline.NewEnv(cfg, traffic.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// One streaming pass feeds every analyzer — the server identifier and
	// the per-IP visibility product among them; no datagram buffer is ever
	// materialized. The aggregator rebuilt from the visibility product
	// shares the environment's entity table, so every IP is resolved
	// through RIB and geo exactly once across all stages.
	wk, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		log.Fatal(err)
	}
	agg := wk.Visibility.Aggregator(env.EntityTable())
	res := wk.Servers
	isServer := func(ip packet.IPv4Addr) bool { _, ok := res.Servers[ip]; return ok }

	// --- Table 1 ---
	all := agg.Summarize(nil)
	srv := agg.Summarize(isServer)
	w := env.World
	fmt.Println("Table 1 — what the IXP sees in one week:")
	fmt.Printf("  peering: %d IPs, %d/%d ASes, %d/%d prefixes, %d countries\n",
		all.IPs, all.ASes, len(w.ASes), all.Prefixes, len(w.Prefixes), all.Countries)
	fmt.Printf("  servers: %d IPs, %d ASes, %d prefixes, %d countries\n",
		srv.IPs, srv.ASes, srv.Prefixes, srv.Countries)

	// --- Table 2 ---
	byIPs, byBytes := agg.TopCountries(5, nil)
	fmt.Println("\nTable 2 — top countries:")
	fmt.Printf("  by IPs:     %v\n", keys(byIPs))
	fmt.Printf("  by traffic: %v\n", keys(byBytes))

	// --- Table 3 ---
	var members []uint32
	for i := range w.ASes {
		if w.ASes[i].IsMemberInWeek(45) {
			members = append(members, w.ASes[i].ASN)
		}
	}
	classes := w.ASGraph().Classify(members)
	bd := agg.LocalGlobal(classes, nil)
	fmt.Println("\nTable 3 — local vs global (A(L) / A(M) / A(G)):")
	fmt.Printf("  IPs:     %.1f%% / %.1f%% / %.1f%%\n", 100*bd.IPs[0], 100*bd.IPs[1], 100*bd.IPs[2])
	fmt.Printf("  traffic: %.1f%% / %.1f%% / %.1f%%\n", 100*bd.Traffic[0], 100*bd.Traffic[1], 100*bd.Traffic[2])

	// --- §3.3 blind spots ---
	list := env.AlexaList(45)
	observed := blindspot.ObservedDomains(res)
	n := len(list.Domains)
	fmt.Println("\n§3.3 — blind spots:")
	fmt.Printf("  site recovery: top-1%% %.0f%%, full list %.0f%%\n",
		100*list.Recovery(observed, n/100), 100*list.Recovery(observed, n))
	ixpSet := map[packet.IPv4Addr]bool{}
	for ip := range res.Servers {
		ixpSet[ip] = true
	}
	var uncovered []string
	for _, d := range list.Domains {
		if !observed[d] {
			uncovered = append(uncovered, d)
		}
	}
	disc := blindspot.Discover(env.DNS, uncovered, 20, ixpSet, cfg.Seed)
	fmt.Printf("  active discovery: %d server IPs from %d domains; %d already at IXP\n",
		len(disc.Discovered), disc.QueriedDomains, disc.AlreadyAtIXP)
	cats := oracle.ClassifyUnseen(w, disc.Discovered, ixpSet)
	fmt.Printf("  unseen classified: %v\n", cats)
}

func keys(s []visibility.Share) []string {
	out := make([]string, 0, len(s))
	for _, sh := range s {
		out = append(out, sh.Key)
	}
	return out
}

// Heterogenization reproduces Section 5 ("beyond the AS-level view"):
// it clusters the identified server IPs by organization, shows how orgs
// spread over many ASes (Fig. 6b) and ASes host many orgs (Fig. 6c),
// and attributes a CDN's traffic to IXP peering links, exposing the
// share that bypasses the direct link (Fig. 7).
//
//	go run ./examples/heterogenization
package main

import (
	"context"
	"fmt"
	"log"

	"ixplens/internal/core/hetero"
	"ixplens/internal/netmodel"
	"ixplens/internal/oracle"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

func main() {
	env, err := pipeline.NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	week, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		log.Fatal(err)
	}
	w := env.World

	// --- Fig. 6(b): organizations spread over ASes ---
	orgPoints := hetero.OrgSpread(week.Clusters, 10)
	fmt.Printf("Fig. 6(b) — %d orgs with >10 server IPs; widest spreads:\n", len(orgPoints))
	shown := 0
	for _, p := range orgPoints {
		if p.ASes > 1 && shown < 5 {
			fmt.Printf("  %-24s %5d server IPs in %3d ASes\n", p.Authority, p.Servers, p.ASes)
			shown++
		}
	}

	// --- Fig. 6(c): ASes hosting many organizations ---
	asPoints := hetero.ASHosting(week.Clusters, 10)
	fmt.Printf("\nFig. 6(c) — ASes hosting multiple orgs (>=2: %d, >=5: %d):\n",
		hetero.CountASesHostingAtLeast(asPoints, 2),
		hetero.CountASesHostingAtLeast(asPoints, 5))
	for i, p := range asPoints {
		if i >= 5 {
			break
		}
		fmt.Printf("  AS%d hosts %d orgs (%d server IPs)\n", p.ASN, p.Orgs, p.Servers)
	}

	// --- Fig. 7(b): link attribution for the Akamai analog ---
	acme := w.Special.AcmeCDN
	c := week.Clusters.Clusters[w.Orgs[acme].Domain]
	if c == nil {
		log.Fatal("no acme cluster recovered")
	}
	set := make(map[packet.IPv4Addr]bool, len(c.IPs))
	for _, ip := range c.IPs {
		set[ip] = true
	}
	// The attribution replays the fused pass's persisted flow product —
	// the capture is never read a second time.
	ls := week.Links.LinkStats(w.Orgs[acme].HomeAS, env.EntityTable(),
		func(ip packet.IPv4Addr) bool { return set[ip] })
	fmt.Printf("\nFig. 7(b) — acme-cdn link attribution:\n")
	fmt.Printf("  %.1f%% of its traffic does NOT use the direct peering link (paper: 11.1%%)\n",
		100*ls.OffLinkShare())
	fmt.Printf("  %d of %d observed acme servers are seen only behind other members\n",
		ls.ServersOnlyOffLink(), ls.ServersOnlyOffLink()+ls.NumDirectServers())
	points := ls.Points()
	lo, hi := 0, 0
	for _, p := range points {
		if p.DirectShare < 0.05 {
			lo++
		}
		if p.DirectShare > 0.95 {
			hi++
		}
	}
	fmt.Printf("  of %d member ASes exchanging acme traffic: %d get it all indirectly, %d (almost) all directly\n",
		len(points), lo, hi)

	// Validation against ground truth: cluster purity.
	v := oracle.Organizations(w, week.Clusters)
	fmt.Printf("\nclustering validation: %.2f%% false positives over %d IPs (paper: <3%%)\n",
		100*v.FalsePositiveRate, v.EvaluatedIPs)
}

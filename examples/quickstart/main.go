// Quickstart: generate a small synthetic Internet plus IXP, run one
// week of sampled sFlow traffic through the measurement pipeline, and
// print the headline numbers of the paper's week-45 snapshot — the
// filtering cascade (Fig. 1), the identified Web server set (§2.2.2)
// and the organization clustering (§5.1).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ixplens/internal/core/cluster"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/traffic"
)

func main() {
	// A small world: ~400 ASes, ~4800 server IPs, 60 IXP members.
	cfg := netmodel.Tiny()
	opts := traffic.DefaultOptions()

	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("world:", env)

	// Stream and analyse one weekly snapshot (week 45, as in the paper):
	// samples are classified as they are generated, with bounded memory.
	week, err := env.AnalyzeWeek(context.Background(), 45)
	if err != nil {
		log.Fatal(err)
	}

	c := week.Counts
	fmt.Printf("\nFig. 1 cascade over %d sampled frames:\n", c.Total)
	fmt.Printf("  non-IPv4 %.2f%% | local %.2f%% | non-TCP/UDP %.2f%% | peering %.2f%%\n",
		pct(c.NonIPv4, c.Total), pct(c.Local, c.Total), pct(c.NonTCPUDP, c.Total),
		100*c.PeeringShare())
	fmt.Printf("  peering bytes: %.1f%% TCP / %.1f%% UDP\n", 100*c.TCPShare(), 100*(1-c.TCPShare()))

	res := week.Servers
	https := 0
	for _, s := range res.Servers {
		if s.HTTPS {
			https++
		}
	}
	fmt.Printf("\nWeb servers identified: %d (of %d endpoint IPs observed)\n",
		len(res.Servers), res.TotalIPs)
	fmt.Printf("  HTTPS crawl funnel: %d candidates -> %d responded -> %d valid\n",
		res.Candidates443, res.Responded443, res.Valid443)
	fmt.Printf("  multi-purpose: %d, dual-role: %d\n", res.MultiPurpose(), res.DualRole())

	cl := week.Clusters
	fmt.Printf("\nOrganization clustering: %d orgs\n", len(cl.Clusters))
	fmt.Printf("  step shares: %.1f%% / %.1f%% / %.1f%% (paper: 78.7 / 17.4 / 3.9)\n",
		100*cl.ClusteredShare(cluster.Step1),
		100*cl.ClusteredShare(cluster.Step2),
		100*cl.ClusteredShare(cluster.Step3))

	// The Akamai-analog cluster, recovered purely from measurements.
	w := env.World
	if acme := cl.Clusters[w.Orgs[w.Special.AcmeCDN].Domain]; acme != nil {
		fmt.Printf("  acme-cdn cluster: %d server IPs across %d ASes\n",
			len(acme.IPs), len(acme.ASNs))
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

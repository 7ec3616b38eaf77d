// Churn reproduces Section 4 ("stable yet changing"): the 17-week
// longitudinal analysis of server IPs at the IXP — the stable,
// recurrent and fresh pools (Fig. 4a), their regional make-up (Fig. 4b),
// AS-level stability (Fig. 4c), traffic concentration in the stable
// pool (Fig. 5), and the §4.2 event studies (HTTPS adoption, a cloud
// region launch, a hurricane-induced outage, reseller growth).
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ixplens/internal/core/churn"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
)

func main() {
	cfg := netmodel.Tiny()
	cfg.NumServers = 2600 // keep sampling density paper-like
	opts := traffic.Options{SamplesPerWeek: 30_000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tracking 17 weekly snapshots...")
	tracker, _, _, err := env.TrackWeeks(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	weeks := tracker.Compute()

	// --- Fig. 4(a): weekly bars ---
	fmt.Println("\nFig. 4(a) — server IP churn (stable | recurrent | new):")
	for _, wc := range weeks {
		fmt.Printf("  week %d: %5d IPs  %s\n", wc.Week, wc.Total(), bar(wc))
	}
	last := weeks[len(weeks)-1]
	fmt.Printf("  week 51 shares: stable %.1f%%, recurrent %.1f%%, new %.1f%% (paper: ~30/60/10)\n",
		100*last.Share(churn.PoolStable), 100*last.Share(churn.PoolRecurrent), 100*last.Share(churn.PoolNew))

	// --- Fig. 4(b)/Fig. 5: regions ---
	fmt.Println("\nFig. 4(b)/Fig. 5 — week-51 stable pool by region:")
	for _, region := range []string{"DE", "US", "RU", "CN", "RoW"} {
		rc := last.ByRegion[region]
		if rc == nil {
			continue
		}
		tot := rc.Bytes[0] + rc.Bytes[1] + rc.Bytes[2]
		stableBytes := 0.0
		if tot > 0 {
			stableBytes = float64(rc.Bytes[churn.PoolStable]) / float64(tot)
		}
		fmt.Printf("  %-3s stable IPs %4d, stable share of region traffic %.0f%%\n",
			region, rc.IPs[churn.PoolStable], 100*stableBytes)
	}
	fmt.Printf("  overall: stable pool carries %.1f%% of server traffic (paper: >60%%)\n",
		100*last.ByteShare(churn.PoolStable))

	// --- Fig. 4(c) ---
	fmt.Printf("\nFig. 4(c) — stable ASes: %.1f%% of %d server-hosting ASes (paper: ~70%%)\n",
		100*float64(last.ASes[churn.PoolStable])/float64(last.TotalASes), last.TotalASes)

	// --- §4.2 events ---
	w := env.World
	fmt.Println("\n§4.2 — events visible at the vantage point:")
	fmt.Printf("  HTTPS IP share: %.1f%% -> %.1f%%\n",
		100*weeks[0].HTTPSShareIPs(), 100*last.HTTPSShareIPs())

	ie := tracker.CountInRanges(cloudRanges(w, w.Special.ElastiCloud, "IE"))
	fmt.Printf("  EC2-Ireland analog server IPs per week: %v\n", ie)

	us := tracker.CountInRanges(cloudRanges(w, w.Special.NimbusCloud, "US"))
	idx := 44 - cfg.FirstWeek
	fmt.Printf("  hurricane week: US cloud servers weeks 43/44/45 = %d / %d / %d\n",
		us[idx-1], us[idx], us[idx+1])

	rs := tracker.CountByMember(w.Special.ResellerAS)
	fmt.Printf("  reseller-carried server IPs: %d -> %d\n", rs[0], rs[len(rs)-1])
}

// bar renders a proportional text bar of the week's three pools.
func bar(wc churn.WeekChurn) string {
	const width = 40
	tot := wc.Total()
	if tot == 0 {
		return ""
	}
	s := wc.IPs[churn.PoolStable] * width / tot
	r := wc.IPs[churn.PoolRecurrent] * width / tot
	n := width - s - r
	return strings.Repeat("#", s) + strings.Repeat("=", r) + strings.Repeat(".", n)
}

func cloudRanges(w *netmodel.World, org int32, country string) []routing.Prefix {
	var out []routing.Prefix
	home := w.Orgs[org].HomeAS
	if home < 0 {
		return out
	}
	for _, pi := range w.ASes[home].Prefixes {
		if w.Prefixes[pi].Country == country {
			out = append(out, w.Prefixes[pi].Prefix)
		}
	}
	return out
}

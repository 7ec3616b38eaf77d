package oracle

import (
	"ixplens/internal/core/cluster"
	"ixplens/internal/netmodel"
)

// OrgScore scores one week's organization clustering (§5.1) against the
// organizations the world assigned its servers. Only clustered IPs that
// are some world server's count; each cluster is labelled with the
// organization most of its IPs belong to.
type OrgScore struct {
	// EvaluatedIPs is the number of clustered IPs with a known
	// organization.
	EvaluatedIPs int
	// FalsePositives counts the IPs whose organization is not their
	// cluster's majority one, and FalsePositiveRate is FalsePositives /
	// EvaluatedIPs — the paper's validation figure.
	FalsePositives    int
	FalsePositiveRate float64
	// RateBySize is the false-positive rate per cluster-size bucket
	// (lower bound of the bucket: 1, 10, 100, 1000); the paper observes
	// it falling with footprint size. Empty buckets are absent.
	RateBySize map[int]float64

	// Purity is the share of evaluated IPs in their cluster's majority
	// organization: 1 - FalsePositiveRate, the clusters' side of the
	// score.
	Purity float64
	// Completeness is the share of evaluated IPs in their organization's
	// largest cluster — the organizations' side: a clustering that
	// splits an organization over many clusters stays pure but loses
	// completeness.
	Completeness float64
	// Orgs is the number of organizations among the evaluated IPs, and
	// SplitOrgs how many of them span more than one cluster.
	Orgs, SplitOrgs int
}

// sizeBuckets are RateBySize's bucket lower bounds.
var sizeBuckets = []int{1, 10, 100, 1000}

// Organizations scores clusters against world.
func Organizations(world *netmodel.World, clusters *cluster.Result) OrgScore {
	var sc OrgScore
	fpBySize := map[int]int{}
	nBySize := map[int]int{}
	type orgIn struct {
		org     int32
		cluster string
	}
	perOrgCluster := map[orgIn]int{}
	for auth, c := range clusters.Clusters {
		counts := map[int32]int{}
		known := 0
		for _, ip := range c.IPs {
			if idx, ok := world.ServerByIP(ip); ok {
				org := world.Servers[idx].Org
				counts[org]++
				perOrgCluster[orgIn{org, auth}]++
				known++
			}
		}
		if known == 0 {
			continue
		}
		majority := 0
		for _, n := range counts {
			majority = max(majority, n)
		}
		fp := known - majority
		sc.EvaluatedIPs += known
		sc.FalsePositives += fp
		b := bucketOf(len(c.IPs))
		fpBySize[b] += fp
		nBySize[b] += known
	}
	sc.FalsePositiveRate = ratio(sc.FalsePositives, sc.EvaluatedIPs)
	sc.RateBySize = make(map[int]float64, len(sizeBuckets))
	for _, b := range sizeBuckets {
		if nBySize[b] > 0 {
			sc.RateBySize[b] = float64(fpBySize[b]) / float64(nBySize[b])
		}
	}
	sc.Purity = ratio(sc.EvaluatedIPs-sc.FalsePositives, sc.EvaluatedIPs)

	largest := map[int32]int{}
	spans := map[int32]int{}
	for k, n := range perOrgCluster {
		largest[k.org] = max(largest[k.org], n)
		spans[k.org]++
	}
	inLargest := 0
	for org, n := range largest {
		inLargest += n
		if spans[org] > 1 {
			sc.SplitOrgs++
		}
	}
	sc.Orgs = len(largest)
	sc.Completeness = ratio(inLargest, sc.EvaluatedIPs)
	return sc
}

// bucketOf is the largest size bucket n reaches.
func bucketOf(n int) int {
	b := sizeBuckets[0]
	for _, t := range sizeBuckets {
		if n >= t {
			b = t
		}
	}
	return b
}

package oracle

import (
	"ixplens/internal/core/cluster"
	"ixplens/internal/netmodel"
	"ixplens/internal/traffic"
)

// ByteScore scores E23's byte estimator for one organization: the
// traffic the analysis attributes to the org's cluster — its servers'
// sampled frame lengths times the sampling rate — against the bytes the
// week's samples carried for the org's true servers.
type ByteScore struct {
	// Measured is the cluster's byte estimate, True the generator's.
	Measured, True uint64
	// RelErr is Measured/True - 1 (0 when True is 0).
	RelErr float64
	// MeasuredShare is the org's share of all clustered bytes, as E23
	// prints it; TrueShare its share of the week's server bytes.
	MeasuredShare, TrueShare float64
	// ShareErrPP is MeasuredShare - TrueShare in percentage points.
	ShareErrPP float64
}

// Bytes scores the byte estimate of world org org, whose cluster is
// keyed by the org's domain in clusters, against the week's truth.
func Bytes(world *netmodel.World, truth traffic.WeekStats, clusters *cluster.Result, org int32) ByteScore {
	var sc ByteScore
	var clustered uint64
	for _, c := range clusters.Clusters {
		clustered += c.Bytes
	}
	if c := clusters.Clusters[world.Orgs[org].Domain]; c != nil {
		sc.Measured = c.Bytes
	}
	sc.True = truth.OrgBytes[org]
	if sc.True > 0 {
		sc.RelErr = float64(sc.Measured)/float64(sc.True) - 1
	}
	if clustered > 0 {
		sc.MeasuredShare = float64(sc.Measured) / float64(clustered)
	}
	if truth.ServerBytes > 0 {
		sc.TrueShare = float64(sc.True) / float64(truth.ServerBytes)
	}
	sc.ShareErrPP = 100 * (sc.MeasuredShare - sc.TrueShare)
	return sc
}

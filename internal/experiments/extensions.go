package experiments

import (
	"errors"
	"fmt"

	"ixplens/internal/oracle"
	"ixplens/internal/packet"
	"ixplens/internal/sflow"
)

// ServerToServerTrend tests the paper's closing prediction (Section 7):
// as more servers are deployed close to end users, IXPs will see less
// end-user-to-server traffic and an increasing amount of server-to-server
// traffic. The experiment captures the first and last study weeks,
// identifies the servers of each, and measures which share of the
// server-related samples has *both* endpoints identified as servers.
func (r *Runner) ServerToServerTrend() (Report, error) {
	rep := Report{ID: "E22", Title: "§7 (extension) — server-to-server traffic trend"}
	cfg := &r.Env.World.Cfg

	first, err := r.m2mShare(cfg.FirstWeek)
	if err != nil {
		return rep, err
	}
	last, err := r.m2mShare(cfg.LastWeek())
	if err != nil {
		return rep, err
	}
	rep.addf("server-to-server share, first week", "expected to grow (prediction)", "%s", pct(first))
	rep.addf("server-to-server share, last week", "larger than first", "%s", pct(last))
	rep.addf("trend", "increasing", "%+.1f points", 100*(last-first))
	rep.series("m2m-share", []float64{first, last})
	return rep, nil
}

// m2mShare measures, for one week, the fraction of server-involving
// peering samples whose both endpoints are identified servers. One
// streamed AnalyzeWeek pass yields the identification and the link-flow
// product; the split then reads off the aggregated flows — every peering
// sample is represented there with its endpoints — so no replay pass is
// ever needed.
func (r *Runner) m2mShare(isoWeek int) (float64, error) {
	wk, err := r.Env.AnalyzeWeek(r.ctx(), isoWeek)
	if err != nil {
		return 0, err
	}
	if wk.Links == nil {
		return 0, errors.New("experiments: links analyzer not in the registry")
	}
	res, links := wk.Servers, wk.Links
	isServer := func(ip packet.IPv4Addr) bool {
		_, ok := res.Servers[ip]
		return ok
	}
	var serverSamples, m2m uint64
	for i := range links.Flows {
		f := &links.Flows[i]
		srcIs, dstIs := isServer(f.Src), isServer(f.Dst)
		if srcIs || dstIs {
			serverSamples += f.Samples
		}
		if srcIs && dstIs {
			m2m += f.Samples
		}
	}
	if serverSamples == 0 {
		return 0, nil
	}
	return float64(m2m) / float64(serverSamples), nil
}

// SamplingCalibration is an internal-validity experiment the paper's
// §2.1 leans on (it cites the companion study for the absence of
// sampling bias): (a) the traffic volumes estimated from flow samples
// must agree with the switch's interface counters, and (b) the measured
// per-organization traffic shares must track the generator's configured
// demand for the headline organizations.
func (r *Runner) SamplingCalibration() (Report, error) {
	rep := Report{ID: "E23", Title: "§2.1 (extension) — sampling calibration"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}

	// (a) Flow-sample volume estimates vs interface counters, tallied
	// per port while week 45 is regenerated (deterministically, so the
	// same stream the analysis saw).
	estimates := make(map[uint32]uint64)
	counters := make(map[uint32]uint64)
	if _, err := r.Env.EachDatagram(r.ctx(), r.focusWeek(), func(d *sflow.Datagram) error {
		for k := range d.Flows {
			fs := &d.Flows[k]
			estimates[fs.InputIf] += uint64(fs.Raw.FrameLength) * uint64(fs.SamplingRate)
		}
		for k := range d.Counters {
			cs := &d.Counters[k]
			if cs.HasGeneric {
				counters[cs.Generic.IfIndex] = cs.Generic.InOctets
			}
		}
		return nil
	}); err != nil {
		return rep, err
	}
	ports, agree := 0, 0
	var maxRel float64
	for port, est := range estimates {
		ctr, ok := counters[port]
		if !ok || ctr == 0 {
			continue
		}
		ports++
		rel := float64(est)/float64(ctr) - 1
		if rel < 0 {
			rel = -rel
		}
		if rel < 0.001 {
			agree++
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	rep.addf("ports with counters", "all member ports", "%d", ports)
	// The collector builds each port's counters from its sampled frames
	// times the sampling rate, so (a) checks the export's bookkeeping,
	// not the estimator's accuracy.
	rep.addf("estimate vs counter agreement (counters built from the samples: consistency only)", "consistent", "%d of %d ports within 0.1%% (max dev %.4f%%)",
		agree, ports, 100*maxRel)

	// (b) Measured org traffic shares vs configured demand.
	w := r.Env.World
	var serverBytes uint64
	for _, c := range wk.Clusters.Clusters {
		serverBytes += c.Bytes
	}
	for _, org := range []int32{w.Special.AcmeCDN, w.Special.GlobalSearch, w.Special.HetzHost} {
		o := &w.Orgs[org]
		c := wk.Clusters.Clusters[o.Domain]
		if c == nil || serverBytes == 0 {
			continue
		}
		measured := float64(c.Bytes) / float64(serverBytes)
		rep.addf(o.Name+" traffic share", fmt.Sprintf("configured %.1f%%", 100*o.Weight),
			"%s", pct(measured))
		// The estimate scored against the bytes the week's samples
		// carried for the org's true servers.
		sc := oracle.Bytes(w, wk.Truth, wk.Clusters, org)
		rep.addf(o.Name+" bytes vs truth (share error)", "-", "%+.1f%% of true bytes; share %s vs %s true (%+.2f pp)",
			100*sc.RelErr, pct(sc.MeasuredShare), pct(sc.TrueShare), sc.ShareErrPP)
	}
	return rep, nil
}

// PeeringFabricVisibility connects to the companion study the paper
// positions itself against (Ager et al., "Anatomy of a Large European
// IXP" — reference [13]): how much of the member-to-member peering
// fabric is visible as traffic in one week of samples, compared with the
// fabric's ground-truth peering matrix.
func (r *Runner) PeeringFabricVisibility() (Report, error) {
	rep := Report{ID: "E24", Title: "[13] (extension) — visible peering fabric"}
	wk, _, err := r.Week45()
	if err != nil {
		return rep, err
	}
	if wk.Links == nil {
		return rep, errors.New("experiments: links analyzer not in the registry")
	}
	// The persisted flow product already keys every peering sample by its
	// (ingress, egress) member pair — the visible fabric reads off it
	// without another pass over the capture.
	type pair struct{ a, b int32 }
	seen := make(map[pair]bool)
	for i := range wk.Links.Flows {
		f := &wk.Links.Flows[i]
		a, b := f.In, f.Out
		if a > b {
			a, b = b, a
		}
		seen[pair{a, b}] = true
	}

	// Ground truth: member pairs that peer directly on the fabric.
	w := r.Env.World
	members := w.MemberASes(r.focusWeek())
	peering := 0
	for i := 0; i < len(members); i++ {
		for k := i + 1; k < len(members); k++ {
			if r.Env.Fabric.Peers(members[i], members[k]) {
				peering++
			}
		}
	}
	// Observed pairs can include relay hops (transit member links), so
	// restrict the comparison to directly peering pairs.
	observedPeering := 0
	for p := range seen {
		if r.Env.Fabric.Peers(p.a, p.b) {
			observedPeering++
		}
	}
	total := len(members) * (len(members) - 1) / 2
	rep.addf("member pairs", "452 members -> ~102K pairs", "%d members -> %d pairs", len(members), total)
	rep.addf("pairs peering on the fabric", "surprisingly rich fabric ([13])", "%d (%s)",
		peering, pct(ratio(peering, total)))
	rep.addf("peering pairs seen with traffic", "majority visible in a week", "%d (%s of peering pairs)",
		observedPeering, pct(ratio(observedPeering, peering)))
	rep.addf("links observed in total", "-", "%d", len(seen))
	return rep, nil
}

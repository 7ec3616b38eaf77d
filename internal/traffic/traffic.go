// Package traffic generates the IXP's sampled traffic: for every weekly
// snapshot it synthesizes the mix the paper dissects in Section 2.2 —
// native IPv6 and other non-IPv4 noise, IXP-local traffic, non-TCP/UDP
// member traffic, and the member-to-member peering traffic dominated by
// Web server flows — renders each sampled frame as real Ethernet bytes,
// and pushes it through the IXP's sFlow export path.
//
// The generator plays the role of reality: the measurement pipeline
// under internal/core sees only the resulting sFlow datagrams.
package traffic

import (
	"fmt"
	"math/rand"
	"slices"

	"ixplens/internal/dnssim"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/randutil"
)

// Options size one generated week.
type Options struct {
	// SamplesPerWeek is the base number of sampled frames per weekly
	// snapshot (scaled up by the traffic growth trend).
	SamplesPerWeek int
	// SamplingRate is the 1-in-N rate stamped into flow samples.
	SamplingRate uint32
	// SnapLen is the header snapshot size (128 bytes at the paper's IXP).
	SnapLen int
}

// DefaultOptions returns the defaults used by tests.
func DefaultOptions() Options {
	return Options{SamplesPerWeek: 30_000, SamplingRate: 16384, SnapLen: 128}
}

// Traffic mix constants (Section 2.2.1): of all traffic, ~0.4% is
// non-IPv4, ~0.6% is local/non-member, ~0.5% of the member-to-member
// IPv4 is non-TCP/UDP; of the remaining peering traffic roughly
// three-quarters is Web-server-related, and the non-server remainder
// leans UDP (P2P and friends), producing the 82/18 TCP/UDP split.
const (
	probNonIPv4       = 0.004
	probLocal         = 0.006
	probNonTCPUDP     = 0.005
	probServerRelated = 0.74
	probOtherUDP      = 0.76
)

// WeekStats reports what the generator actually emitted for one week;
// the experiments compare the pipeline's findings against these ground
// truths.
type WeekStats struct {
	Week              int
	Samples           int
	NonIPv4           int
	Local             int
	NonTCPUDP         int
	PeeringSamples    int
	ServerSamples     int
	ServerBytes       uint64
	PeeringBytes      uint64
	HTTPSSamples      int
	M2MSamples        int // server-to-server (machine-to-machine) samples
	ActiveServers     int // distinct visible+active servers this week
	DroppedUnroutable int
	// Sampled holds the world server indices actually hit by sampling,
	// sorted ascending: the set identification recall is scored against.
	Sampled []int32
	// Evidence is parallel to Sampled: the strongest evidence of its
	// server role any of the server's samples carried.
	Evidence []Evidence
	// OrgBytes splits ServerBytes by the organization of each frame's
	// server: the bytes the week's samples represent (16384 frames per
	// sample at the default rate) for each org's servers.
	OrgBytes map[int32]uint64
}

// Evidence grades what a sampled frame's snippet shows of its server
// endpoint's role, weakest first. A server's evidence for a week is the
// strongest over its samples.
type Evidence uint8

const (
	// EvidenceOpaque: nothing in the snippet marks the endpoint a server
	// — a response body, RTMP, a request line cut by the snap, or the
	// server fetching as a client.
	EvidenceOpaque Evidence = iota
	// Evidence443: a TCP 443 exchange with the endpoint, which makes it
	// an HTTPS crawl candidate; the snippet itself is opaque.
	Evidence443
	// EvidenceHTTP: an HTTP request line (to the endpoint), status line
	// (from it) or header field in the snippet.
	EvidenceHTTP
)

// SampledServers is the number of distinct servers hit by sampling.
func (s WeekStats) SampledServers() int { return len(s.Sampled) }

// Generator produces weekly sFlow captures from the world.
type Generator struct {
	w      *netmodel.World
	dns    *dnssim.DB
	fabric *ixp.Fabric
	opts   Options

	clientAlias *randutil.Alias
	clientASes  []int32

	builder *packet.Builder
	scratch []byte
}

// NewGenerator wires a generator to a world and its fabric.
func NewGenerator(w *netmodel.World, dns *dnssim.DB, fabric *ixp.Fabric, opts Options) *Generator {
	g := &Generator{
		w: w, dns: dns, fabric: fabric, opts: opts,
		builder: packet.NewBuilder(2048),
		scratch: make([]byte, 0, 1600),
	}
	var weights []float64
	for i := range w.ASes {
		if cw := w.ASes[i].ClientWeight; cw > 0 {
			g.clientASes = append(g.clientASes, int32(i))
			weights = append(weights, cw*localityFactor(w.ASes[i].Country))
		}
	}
	g.clientAlias = randutil.NewAlias(weights)
	return g
}

// localityFactor boosts traffic of clients near the (German) IXP.
func localityFactor(country string) float64 {
	switch country {
	case "DE":
		return 5.0
	case "FR", "GB", "NL", "IT", "ES", "PL", "CZ", "AT", "CH", "SE", "DK",
		"NO", "FI", "BE", "PT", "GR", "HU", "RO", "IE", "EU", "UA", "TR", "RU":
		return 2.2
	default:
		return 0.6
	}
}

// weekServerAlias builds the week's server-selection table over servers
// that are visible at the IXP and active that week. The weight combines
// org popularity, the server's share, and the HTTPS adoption trend.
func (g *Generator) weekServerAlias(isoWeek int) (*randutil.Alias, []int32) {
	w := g.w
	weekIdx := isoWeek - w.Cfg.FirstWeek
	httpsGrowth := 1 + 0.05*float64(weekIdx)
	var idx []int32
	var raw []float64
	orgSum := make(map[int32]float64)
	for i := range w.Servers {
		s := &w.Servers[i]
		if !s.VisibleAtIXP() || !w.ServerActiveInWeek(int32(i), isoWeek) {
			continue
		}
		wt := float64(s.Weight)
		if wt <= 0 || w.Orgs[s.Org].Weight <= 0 {
			continue
		}
		if s.Is(netmodel.SrvHTTPS) {
			wt *= 0.85 + 0.15*httpsGrowth
		}
		// CDN-deploy servers inside the org's own AS carry most of the
		// org's traffic (Fig. 7b: only 11.1% of Akamai traffic enters
		// via non-Akamai links despite most servers being off-AS).
		if w.Orgs[s.Org].Kind == netmodel.OrgCDNDeploy && s.AS == w.Orgs[s.Org].HomeAS {
			wt *= 25
		}
		idx = append(idx, int32(i))
		raw = append(raw, wt)
		orgSum[s.Org] += wt
	}
	if len(idx) == 0 {
		return nil, nil
	}
	// Renormalize per organization so the within-org boosts (HTTPS
	// growth, own-AS concentration) redistribute demand inside the org
	// without inflating the org's share of total traffic.
	weights := make([]float64, len(idx))
	for k, si := range idx {
		org := w.Servers[si].Org
		weights[k] = w.Orgs[org].Weight * raw[k] / orgSum[org]
	}
	return randutil.NewAlias(weights), idx
}

// volumeFactor scales the weekly sample count along the paper's traffic
// growth (11.9 PB/day in week 35 to 14.5 PB/day in week 51).
func (g *Generator) volumeFactor(isoWeek int) float64 {
	cfg := &g.w.Cfg
	if cfg.Weeks <= 1 {
		return 1
	}
	frac := float64(isoWeek-cfg.FirstWeek) / float64(cfg.Weeks-1)
	return 1 + frac*(cfg.AvgDailyTrafficPBEnd/cfg.AvgDailyTrafficPBStart-1)
}

// GenerateWeek renders one weekly snapshot into the collector. The
// returned stats are generator-side ground truth.
func (g *Generator) GenerateWeek(isoWeek int, col *ixp.Collector) (WeekStats, error) {
	w := g.w
	if isoWeek < w.Cfg.FirstWeek || isoWeek > w.Cfg.LastWeek() {
		return WeekStats{}, fmt.Errorf("traffic: week %d outside study window %d..%d",
			isoWeek, w.Cfg.FirstWeek, w.Cfg.LastWeek())
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ int64(isoWeek)*0x9e37))
	alias, servers := g.weekServerAlias(isoWeek)
	if alias == nil {
		return WeekStats{}, fmt.Errorf("traffic: no active visible servers in week %d", isoWeek)
	}
	stats := WeekStats{Week: isoWeek, ActiveServers: len(servers), OrgBytes: map[int32]uint64{}}
	sampled := make(map[int32]Evidence)

	n := int(float64(g.opts.SamplesPerWeek) * g.volumeFactor(isoWeek))
	for k := 0; k < n; k++ {
		r := rng.Float64()
		var err error
		switch {
		case r < probNonIPv4:
			err = g.emitNonIPv4(rng, isoWeek, col, &stats)
		case r < probNonIPv4+probLocal:
			err = g.emitLocal(rng, col, &stats)
		case r < probNonIPv4+probLocal+probNonTCPUDP:
			err = g.emitNonTCPUDP(rng, isoWeek, col, &stats)
		default:
			if rng.Float64() < probServerRelated {
				err = g.emitServerFlow(rng, isoWeek, col, alias, servers, sampled, &stats)
			} else {
				err = g.emitOtherPeering(rng, isoWeek, col, &stats)
			}
		}
		if err != nil {
			return stats, err
		}
	}
	// Periodic interface counters for every port that saw traffic,
	// accumulated by the collector exactly as a switch would.
	if err := col.EmitPortCounters(); err != nil {
		return stats, err
	}
	stats.Sampled = make([]int32, 0, len(sampled))
	for si := range sampled {
		stats.Sampled = append(stats.Sampled, si)
	}
	slices.Sort(stats.Sampled)
	stats.Evidence = make([]Evidence, len(stats.Sampled))
	for i, si := range stats.Sampled {
		stats.Evidence[i] = sampled[si]
	}
	return stats, col.Flush()
}

package analysis

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/webserver"
	"ixplens/internal/packet"
)

// bigResult is a result of n servers, each with ports, hosts, a subject
// and alt names, so that per-server allocations would show.
func bigResult(n int) *webserver.Result {
	res := &webserver.Result{Week: 45, Servers: make(map[packet.IPv4Addr]*webserver.Server, n), TotalIPs: 4 * n}
	for i := 0; i < n; i++ {
		ip := packet.IPv4Addr(0x0a000000 + uint32(i)*7)
		res.Servers[ip] = &webserver.Server{
			IP: ip, HTTP: true, HTTPS: i%2 == 0, Bytes: uint64(i) * 1500, Member: int32(i % 50),
			Ports: []uint16{80, 443}, Hosts: []string{fmt.Sprintf("h%d.example", i)},
			Cert: certsim.Info{Subject: fmt.Sprintf("s%d.example", i), AltNames: []string{"alt.example"}},
		}
	}
	return res
}

// TestDecodeResultAllocs: decoding a result costs a fixed number of
// allocations whatever its server count — the slabs, not one set per
// server. The Servers map itself is the exception: Go's map allocates a
// table per ~900 entries, so its own allocations (measured by building
// an equal map) are taken out on both sides.
func TestDecodeResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	beyondMap := func(n int) int {
		res := bigResult(n)
		buf, err := AppendResult(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		ips := make([]packet.IPv4Addr, 0, n)
		for ip := range res.Servers {
			ips = append(ips, ip)
		}
		slices.Sort(ips)
		decode := fewestAllocs(func() {
			if _, err := DecodeResult(1, buf); err != nil {
				t.Fatal(err)
			}
		})
		buildMap := fewestAllocs(func() {
			m := make(map[packet.IPv4Addr]*webserver.Server, n)
			for _, ip := range ips {
				m[ip] = nil
			}
		})
		return int(decode) - int(buildMap)
	}
	if small, large := beyondMap(100), beyondMap(10000); small != large {
		t.Fatalf("decode allocations beyond the map: %d for 100 servers, %d for 10000", small, large)
	}
}

// fewestAllocs is the fewest heap allocations f made in 50 calls. Each
// map draws its own hash seed, and a seed that crowds one table of a
// presized map splits it, two allocations more; the fewest is the count
// with no split, which is the same on every run.
func fewestAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 50; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}

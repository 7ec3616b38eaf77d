package analysis

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
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

// FuzzDecodeResult holds the one validating walk to its two users:
// IndexResult accepts exactly the inputs DecodeResult accepts, and on
// every accepted input the index, the counts, the top-k selection and
// each record decoded alone agree with the built result, which
// re-encodes to exactly the input.
func FuzzDecodeResult(f *testing.F) {
	addDecoderSeeds(f, NameWebserver)
	valid, err := AppendResult(nil, syntheticResult())
	if err != nil {
		f.Fatal(err)
	}
	_, refs, err := IndexResult(1, valid)
	if err != nil || len(refs) < 2 {
		f.Fatalf("synthetic result does not index: %v", err)
	}
	outOfOrder := bytes.Clone(valid)
	copy(outOfOrder[refs[1].Off:], valid[refs[0].Off:refs[0].Off+4])
	unknownFlag := bytes.Clone(valid)
	unknownFlag[refs[0].Off+4] |= 0x80
	f.Add(uint16(1), outOfOrder)
	f.Add(uint16(1), unknownFlag)
	f.Add(uint16(1), valid[:refs[1].Off+serverFixedLen+1]) // a truncated record
	f.Fuzz(func(t *testing.T, version uint16, data []byte) {
		h, refs, ierr := IndexResult(version, data)
		res, derr := DecodeResult(version, data)
		if (ierr == nil) != (derr == nil) {
			t.Fatalf("IndexResult error %v, DecodeResult error %v", ierr, derr)
		}
		if derr != nil {
			if !errors.Is(derr, ErrFormat) && !errors.Is(derr, ErrVersion) {
				t.Fatalf("untyped error: %v", derr)
			}
			return
		}
		if got := encode(t, &WebserverProduct{Res: res}); !bytes.Equal(got, data) {
			t.Fatalf("re-encode drifted:\n got %x\nwant %x", got, data)
		}
		if h.nStrs, h.nText = 0, 0; h != HeaderOf(res) {
			t.Fatalf("index header %+v, result header %+v", h, HeaderOf(res))
		}
		if len(refs) != len(res.Servers) {
			t.Fatalf("%d refs for %d servers", len(refs), len(res.Servers))
		}
		for _, ref := range refs {
			srv := res.Servers[ref.IP]
			if srv == nil || ref.Bytes != srv.Bytes || ref.Flags != flagsOf(srv) || int(ref.NPorts) != len(srv.Ports) {
				t.Fatalf("ref %+v disagrees with server %+v", ref, srv)
			}
			if one := DecodeServer(data, ref); !reflect.DeepEqual(one, srv) {
				t.Fatalf("record decoded alone %+v, in the result %+v", one, srv)
			}
		}
		https := 0
		for _, srv := range res.Servers {
			if srv.HTTPS {
				https++
			}
		}
		want := ServerCounts{Servers: len(res.Servers), HTTPS: https, MultiPurpose: res.MultiPurpose(), DualRole: res.DualRole()}
		if got := CountServers(refs); got != want {
			t.Fatalf("index counts %+v, result counts %+v", got, want)
		}
		for _, k := range []int{1, 2, 3, len(refs)} {
			top, ranked := TopRefs(refs, k), res.TopServers(k)
			if len(top) != len(ranked) {
				t.Fatalf("top %d: %d refs, %d servers", k, len(top), len(ranked))
			}
			for i := range top {
				if top[i].IP != ranked[i].IP {
					t.Fatalf("top %d, rank %d: ref %v, server %v", k, i, top[i].IP, ranked[i].IP)
				}
			}
		}
	})
}

// TestTopRefsMatchesFullSort: the bounded selection returns exactly the
// prefix of the full rank order, ties on bytes broken by IP, for every k.
func TestTopRefsMatchesFullSort(t *testing.T) {
	var refs []ServerRef
	for i := 0; i < 300; i++ {
		refs = append(refs, ServerRef{IP: packet.IPv4Addr(i), Bytes: uint64(i*7919) % 37})
	}
	sorted := slices.Clone(refs)
	slices.SortFunc(sorted, compareRank)
	for _, k := range []int{0, 1, 2, 10, 36, 37, 299, 300, 1000} {
		if got, want := TopRefs(refs, k), sorted[:min(k, len(sorted))]; !slices.Equal(got, want) {
			t.Fatalf("TopRefs(%d) = %v, want %v", k, got, want)
		}
	}
}

// HeaderOf is the header of a built result, as IndexResult reads it
// from the result's encoding: the reference IndexResult's header is
// checked against.
func HeaderOf(r *webserver.Result) ResultHeader {
	return ResultHeader{
		Week: r.Week, EstLoss: r.EstLoss,
		Candidates443: r.Candidates443, Responded443: r.Responded443, Valid443: r.Valid443,
		TotalIPs: r.TotalIPs, ServerBytes: r.ServerBytes,
	}
}

// IndexOf indexes a built result's server list as IndexResult indexes
// its encoding, in IP order, without offsets: the reference IndexResult's
// refs are checked against.
func IndexOf(r *webserver.Result) []ServerRef {
	refs := make([]ServerRef, 0, len(r.Servers))
	for ip, s := range r.Servers {
		refs = append(refs, ServerRef{IP: ip, Bytes: s.Bytes, Flags: flagsOf(s), NPorts: uint8(min(len(s.Ports), 255))})
	}
	slices.SortFunc(refs, func(a, b ServerRef) int { return cmp.Compare(a.IP, b.IP) })
	return refs
}

// TestIndexOfMatchesIndexResult: a built result indexes to the refs its
// encoding indexes to, offsets aside.
func TestIndexOfMatchesIndexResult(t *testing.T) {
	res := bigResult(500)
	buf, err := AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	h, refs, err := IndexResult(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.nStrs, h.nText = 0, 0; h != HeaderOf(res) {
		t.Fatalf("header %+v, want %+v", h, HeaderOf(res))
	}
	for i := range refs {
		refs[i].Off = 0
	}
	if got := IndexOf(res); !slices.Equal(got, refs) {
		t.Fatal("IndexOf disagrees with IndexResult")
	}
}

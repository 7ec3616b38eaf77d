package webserver

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ixplens/internal/core/dissect"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// synthRecords builds a deterministic mixed workload: requests,
// responses, header-only and opaque payloads over a small IP pool, with
// enough distinct ports/hosts per IP to overflow the capped sets and
// enough member flapping to exercise the SrcMember tie-break.
func synthRecords(n int) []dissect.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]dissect.Record, n)
	for i := range recs {
		src := packet.MakeIPv4(10, 0, 0, byte(rng.Intn(24)))
		dst := packet.MakeIPv4(10, 0, 1, byte(rng.Intn(24)))
		r := dissect.Record{
			Class: dissect.ClassPeeringTCP,
			SrcIP: src, DstIP: dst,
			SrcPort:  uint16(1024 + rng.Intn(64)),
			DstPort:  uint16(rng.Intn(20)*443 + 80), // 80, 523, 966, ... incl. 443 multiples
			Bytes:    uint64(rng.Intn(4096)),
			InMember: int32(rng.Intn(5)),
		}
		switch rng.Intn(4) {
		case 0:
			r.Payload = []byte(fmt.Sprintf("GET /x HTTP/1.1\r\nHost: h%02d.example.com\r\n", rng.Intn(40)))
		case 1:
			r.Payload = []byte("HTTP/1.1 200 OK\r\nServer: synth\r\n")
		case 2:
			r.DstPort = 8080
			r.Payload = []byte("Content-Type: text/html\r\n")
		default:
			if rng.Intn(3) == 0 {
				r.SrcPort = 1935
			}
			r.Payload = []byte{0x16, 0x03, 0x01}
		}
		if rng.Intn(6) == 0 {
			r.DstPort = 443
		}
		recs[i] = r
	}
	return recs
}

// testIdentifier is an identifier over its own identity-only entity
// table, fed the way analysis.Run.Observe feeds it: peering records
// only, both endpoints resolved once.
type testIdentifier struct {
	*Identifier
	table *entity.Table
}

func newTestIdentifier(shards int) *testIdentifier {
	table := entity.NewTable(nil, nil)
	return &testIdentifier{Identifier: NewSharded(shards, table), table: table}
}

// observe matches dissect.ShardObserver.
func (id *testIdentifier) observe(shard int, rec *dissect.Record, seq uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	src, dst := id.table.ResolvePair(rec.SrcIP, rec.DstIP)
	id.ObserveIDs(shard, rec, src, dst, seq)
}

// feedSharded distributes recs over the identifier's shards using the
// given assignment function, passing each record's stream index as seq.
func feedSharded(id *testIdentifier, recs []dissect.Record, assign func(i int) int) {
	for i := range recs {
		id.observe(assign(i), &recs[i], uint64(i))
	}
}

// ipState is one IP's merged evidence with its out-of-line sets inlined,
// comparable across identifiers whatever their slot and set layout.
type ipState struct {
	IPStats
	Ports []uint16
	Hosts []string
}

// mergedByIP merges id's shards and returns every IP's evidence.
func mergedByIP(id *testIdentifier) map[packet.IPv4Addr]*ipState {
	sh := id.merged()
	out := make(map[packet.IPv4Addr]*ipState, sh.slots.n)
	for pos := 1; pos <= sh.slots.n; pos++ {
		sl := sh.slots.at(uint32(pos))
		srv := sh.server(sl)
		st := &ipState{IPStats: sl.IPStats, Ports: srv.Ports, Hosts: srv.Hosts}
		st.sets = 0
		out[sl.ip] = st
	}
	return out
}

func TestShardedMergeMatchesSerial(t *testing.T) {
	recs := synthRecords(4000)

	serial := newTestIdentifier(1)
	feedSharded(serial, recs, func(int) int { return 0 })
	want := mergedByIP(serial)

	assignments := map[string]func(i int) int{
		"round-robin": func(i int) int { return i % 4 },
		"blocks":      func(i int) int { return i / 1000 },
		"skewed":      func(i int) int { return (i * i) % 4 },
	}
	for name, assign := range assignments {
		sharded := newTestIdentifier(4)
		feedSharded(sharded, recs, assign)
		got := mergedByIP(sharded)
		if len(got) != len(want) {
			t.Fatalf("%s: %d IPs, want %d", name, len(got), len(want))
		}
		for ip, w := range want {
			g := got[ip]
			if g == nil {
				t.Fatalf("%s: IP %v missing from sharded stats", name, ip)
			}
			if !reflect.DeepEqual(*g, *w) {
				t.Fatalf("%s: IP %v stats = %+v, want %+v", name, ip, *g, *w)
			}
		}
	}
}

func TestKSmallestCapsArePartitionIndependent(t *testing.T) {
	// Overflow the port cap from two shards in opposite orders; the
	// merged set must be the k smallest of the union either way.
	a, b := newTestIdentifier(2), newTestIdentifier(2)
	rec := func(port uint16) *dissect.Record {
		return &dissect.Record{
			Class: dissect.ClassPeeringTCP,
			SrcIP: packet.MakeIPv4(1, 1, 1, 1), DstIP: packet.MakeIPv4(2, 2, 2, 2),
			SrcPort: 2000, DstPort: port,
			Payload: []byte("GET / HTTP/1.1\r\nHost: a\r\n"),
		}
	}
	var seq uint64
	for p := uint16(100); p < 120; p++ {
		a.observe(0, rec(p), seq)
		a.observe(1, rec(219-p+100), seq+1)
		b.observe(1, rec(p), seq)
		b.observe(0, rec(219-p+100), seq+1)
		seq += 2
	}
	sa := mergedByIP(a)[packet.MakeIPv4(2, 2, 2, 2)]
	sb := mergedByIP(b)[packet.MakeIPv4(2, 2, 2, 2)]
	if !reflect.DeepEqual(sa.Ports, sb.Ports) {
		t.Fatalf("port sets differ across partitions: %v vs %v", sa.Ports, sb.Ports)
	}
	if len(sa.Ports) != maxPortsPerIP || !sort.SliceIsSorted(sa.Ports, func(i, j int) bool { return sa.Ports[i] < sa.Ports[j] }) {
		t.Fatalf("merged ports not the sorted k-smallest: %v", sa.Ports)
	}
	if sa.Ports[0] != 100 || sa.Ports[maxPortsPerIP-1] != 100+maxPortsPerIP-1 {
		t.Fatalf("merged ports are not the smallest of the union: %v", sa.Ports)
	}
}

func TestSrcMemberSeqTieBreak(t *testing.T) {
	// The record with the highest seq must win SrcMember regardless of
	// which shard saw it.
	mk := func(member int32) *dissect.Record {
		return &dissect.Record{
			Class: dissect.ClassPeeringTCP,
			SrcIP: packet.MakeIPv4(9, 9, 9, 9), DstIP: packet.MakeIPv4(8, 8, 8, 8),
			SrcPort: 1024, DstPort: 80, InMember: member,
			Payload: []byte{0x00},
		}
	}
	id := newTestIdentifier(3)
	id.observe(2, mk(7), 10) // latest sample, on shard 2
	id.observe(0, mk(3), 2)
	id.observe(1, mk(5), 5)
	st := mergedByIP(id)[packet.MakeIPv4(9, 9, 9, 9)]
	if st.SrcMember != 7 {
		t.Fatalf("SrcMember = %d, want 7 (highest seq wins)", st.SrcMember)
	}
}

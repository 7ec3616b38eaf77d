package pipeline

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/netmodel"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

// WeekBuffer is one generated week held in memory, for tests that
// replay the same stream more than once or check the driver against an
// independent pass over it.
type WeekBuffer []sflow.Datagram

// BufferWeek collects week wk from the Env's generation sink, cloning
// every datagram out of the collector's recycled buffers.
func BufferWeek(t testing.TB, env *Env, wk int) (WeekBuffer, traffic.WeekStats) {
	t.Helper()
	var buf WeekBuffer
	truth, err := env.EachDatagram(context.Background(), wk, func(d *sflow.Datagram) error {
		buf = append(buf, *d.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf, truth
}

// Feed pushes the buffered week into emit, in stream order.
func (b WeekBuffer) Feed(emit func(*sflow.Datagram) error) error {
	for i := range b {
		if err := emit(&b[i]); err != nil {
			return err
		}
	}
	return nil
}

// Source returns the buffered week as a pull-side datagram source.
func (b WeekBuffer) Source() *dissect.SliceSource {
	return &dissect.SliceSource{Datagrams: b}
}

// TestAnalyzeWeekSinglePass pins the fused pass's core promise: the
// capture is decoded exactly ONCE regardless of how many analyzers are
// registered — adding an analysis perspective must never add a rescan.
func TestAnalyzeWeekSinglePass(t *testing.T) {
	env := goldenEnv(t)
	ctx := context.Background()
	buf, _ := BufferWeek(t, env, 45)

	emits := func(list string) (int, *Week) {
		t.Helper()
		reg, err := analysis.Select(list)
		if err != nil {
			t.Fatal(err)
		}
		env.Analyzers = reg
		n := 0
		prods, _, err := env.AnalyzeFeed(ctx, 45, 1, func(emit func(*sflow.Datagram) error) error {
			return buf.Feed(func(d *sflow.Datagram) error {
				n++
				return emit(d)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, &Week{Servers: prods.Webserver(), Visibility: prods.Visibility(), Links: prods.Links()}
	}

	oneEmits, oneWk := emits("webserver")
	allEmits, allWk := emits("all")
	env.Analyzers = nil

	if want := len(buf); oneEmits != want { // every datagram once
		t.Fatalf("single-analyzer run took %d datagrams, want %d", oneEmits, want)
	}
	if allEmits != oneEmits {
		t.Fatalf("three analyzers took %d datagrams, one analyzer took %d — the pass is not fused",
			allEmits, oneEmits)
	}
	// The fan-out must not perturb any single analyzer's aggregates.
	a, err := (&analysis.WebserverProduct{Res: oneWk.Servers}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&analysis.WebserverProduct{Res: allWk.Servers}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("webserver product changed when more analyzers joined the pass")
	}
	if oneWk.Visibility != nil || oneWk.Links != nil {
		t.Fatal("narrowed registry still produced deselected products")
	}
	if allWk.Visibility == nil || allWk.Links == nil {
		t.Fatal("full registry missing analyzer products")
	}
}

// TestGoldenAnalyzerEquivalence is the fused pass's acceptance proof:
// for every study week, the one driver at four workers must produce
// products byte-identical to its serial reference (workers=1), and both
// must match a dedicated visibility pass and an independent per-record
// flow aggregation reimplemented here.
func TestGoldenAnalyzerEquivalence(t *testing.T) {
	env, err := NewEnv(netmodel.Tiny(),
		traffic.Options{SamplesPerWeek: 2000, SamplingRate: 16384, SnapLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &env.World.Cfg
	ctx := context.Background()

	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		fused := analyzeAt(t, env, wk, 4)

		// Reference pass 1: the serial driver.
		serial := analyzeAt(t, env, wk, 1)
		if serial.Counts != fused.Counts {
			t.Fatalf("week %d counts diverged:\nserial %+v\nfused  %+v", wk, serial.Counts, fused.Counts)
		}
		wantWS, err := (&analysis.WebserverProduct{Res: serial.Servers}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		gotWS, err := (&analysis.WebserverProduct{Res: fused.Servers}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantWS, gotWS) {
			t.Fatalf("week %d: fused webserver product differs from serial reference", wk)
		}

		// Reference passes 2 and 3 ride one serial pass over the week's
		// regenerated datagrams (the env has no faults, so they are the
		// pristine stream the driver saw): the bespoke visibility
		// aggregation and an independent flow roll-up, the way the
		// pre-registry code rescanned the week per analysis.
		buf, _ := BufferWeek(t, env, wk)
		agg := visibility.NewAggregatorWith(env.EntityTable())
		flows := make(map[analysis.FlowKey]*analysis.Flow)
		if _, err := dissect.ProcessSharded(ctx, buf.Source(), env.Fabric, 1, func(_ int, rec *dissect.Record, _ uint64) {
			agg.Observe(rec)
			if !rec.Class.IsPeering() {
				return
			}
			k := analysis.FlowKey{Src: rec.SrcIP, Dst: rec.DstIP, In: rec.InMember, Out: rec.OutMember}
			f := flows[k]
			if f == nil {
				f = &analysis.Flow{FlowKey: k}
				flows[k] = f
			}
			f.Bytes += rec.Bytes
			f.Samples++
		}, nil); err != nil {
			t.Fatalf("week %d reference pass: %v", wk, err)
		}

		wantVis, err := (&analysis.VisibilityProduct{PerIP: agg.PerIP()}).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []*Week{serial, fused} {
			gotVis, err := run.Visibility.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantVis, gotVis) {
				t.Fatalf("week %d: visibility product differs from dedicated-pass reference", wk)
			}
		}

		ref := &analysis.LinksProduct{Flows: make([]analysis.Flow, 0, len(flows))}
		for _, f := range flows {
			ref.Flows = append(ref.Flows, *f)
		}
		sort.Slice(ref.Flows, func(i, j int) bool {
			a, b := &ref.Flows[i].FlowKey, &ref.Flows[j].FlowKey
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			if a.In != b.In {
				return a.In < b.In
			}
			return a.Out < b.Out
		})
		wantLinks, err := ref.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []*Week{serial, fused} {
			gotLinks, err := run.Links.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantLinks, gotLinks) {
				t.Fatalf("week %d: links product differs from independent roll-up", wk)
			}
		}
	}
}

// TestIDIndexAcrossWeeks pins the ID-keyed analyzer state on an entity
// table a caller shares across weeks by reusing one analysis context.
// The second week's state is built with its ID indexes sized to the
// table the first week left behind, so it meets IDs from the first week
// inside the index and IDs interned mid-run beyond it (concurrently, at
// four workers). Its webserver and visibility products must be
// byte-equal to the same week analysed on its own table.
func TestIDIndexAcrossWeeks(t *testing.T) {
	const first, second = 40, 41
	encode := func(p analysis.Product) []byte {
		b, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, workers := range []int{1, 4} {
		env := goldenEnv(t)
		actx := env.AnalysisContext()
		analyzeWith := func(wk int) *analysis.Products {
			prods, _, _, err := env.streamWeek(context.Background(), env.Gen, env.Registry(), actx, wk, workers)
			if err != nil {
				t.Fatal(err)
			}
			return prods
		}
		analyzeWith(first)
		table := actx.Entities
		sized := table.Len()
		got := analyzeWith(second)
		if table.Len() == sized {
			t.Fatalf("w%d: week %d interned no new IPs, so no index grew", workers, second)
		}
		reused := 0
		for _, e := range got.Visibility().PerIP {
			if id, ok := table.Lookup(e.IP); ok && int(id) < sized {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("w%d: week %d met no IP of week %d", workers, second, first)
		}

		want := analyzeAt(t, env, second, workers)
		if !bytes.Equal(encode(&analysis.WebserverProduct{Res: got.Webserver()}), encode(&analysis.WebserverProduct{Res: want.Servers})) {
			t.Fatalf("w%d: webserver product on the shared table differs from a fresh table's", workers)
		}
		if !bytes.Equal(encode(got.Visibility()), encode(want.Visibility)) {
			t.Fatalf("w%d: visibility product on the shared table differs from a fresh table's", workers)
		}
	}
}

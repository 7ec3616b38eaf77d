package inputs

import (
	"cmp"
	"runtime"
	"slices"

	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// Recorder builds a campaign's inputs file from a generated world while
// the campaign's captures are written: the campaign-wide data sets, and
// each week's answers for the addresses its capture holds. It works on
// its own goroutine, beside the generation: Record hands a week over,
// Encode waits for the last one. A week's sections go to a spill file
// in the campaign directory as they are encoded, so the recorder holds
// no more than one week in memory. Call Close on paths that never reach
// Encode.
type Recorder struct {
	env   *pipeline.Env
	fsys  vfs.FS
	weeks chan *Tap
	done  chan struct{}
	// Written by the recorder's goroutine only, read after done.
	secs  []snapshot.Section // the campaign-wide sections
	spill vfs.File
	at    map[string]spilled
	end   int64
	err   error

	closed bool
}

// spilled locates one week section in the spill file.
type spilled struct{ off, n int64 }

// NewRecorder starts the inputs of env's campaign, spilling into dir
// through fsys. env must carry its generator half (NewEnv builds it):
// the data sets are read off the world, and the answers asked of the
// world's crawler and DNS. Nothing else may ask the world's crawler or
// DNS until Encode or Close returns.
func NewRecorder(env *pipeline.Env, fsys vfs.FS, dir string) (*Recorder, error) {
	spill, err := fsys.CreateTemp(dir, ".snap-inputs-*")
	if err != nil {
		return nil, err
	}
	r := &Recorder{env: env, fsys: fsys, spill: spill, at: map[string]spilled{},
		weeks: make(chan *Tap, 1), done: make(chan struct{})}
	go r.run()
	return r, nil
}

// run records the campaign-wide sections, then each week handed over.
func (r *Recorder) run() {
	defer close(r.done)
	f := r.campaign()
	r.secs = campaignSections(&f)
	for t := range r.weeks {
		w := r.answers(t)
		for _, sec := range weekSections(&w) {
			if r.err != nil {
				break
			}
			_, r.err = r.spill.Write(sec.Payload)
			// A week recorded twice keeps the second recording.
			r.at[sec.Name] = spilled{off: r.end, n: int64(len(sec.Payload))}
			r.end += int64(len(sec.Payload))
		}
		// The week's answers, addresses and encodings are garbage now.
		// Collecting them before the next week keeps the GC's goal from
		// doubling them: on a small world they are most of ixpgen's
		// peak heap.
		runtime.GC()
	}
}

// campaign reads the campaign-wide data sets off the world.
func (r *Recorder) campaign() File {
	env := r.env
	w, in := env.World, &env.Inputs
	f := File{Acme: in.Acme, Counts: in.Counts, PublicDNS: in.PublicDNS}
	for i := range w.ASes {
		port := env.Fabric.PortOfMember(int32(i))
		if as, ok := env.Fabric.MemberOfPort(port); ok {
			f.Members = append(f.Members, Member{Port: port, AS: as})
		}
	}
	slices.SortFunc(f.Members, func(a, b Member) int { return cmp.Compare(a.Port, b.Port) })
	f.Routes = make([]Route, len(w.Prefixes))
	for i := range w.Prefixes {
		p := &w.Prefixes[i]
		f.Routes[i] = Route{Prefix: p.Prefix, ASN: w.ASes[p.AS].ASN, Country: p.GeoCountry}
	}
	slices.SortFunc(f.Routes, func(a, b Route) int { return cmp.Compare(a.Prefix.Addr, b.Prefix.Addr) })
	for root := range in.Roots {
		f.Roots = append(f.Roots, root)
	}
	slices.Sort(f.Roots)
	soas := env.DNS.SOAs()
	f.SOA = make([]SOA, 0, len(soas))
	for dom, root := range soas {
		f.SOA = append(f.SOA, SOA{Domain: dom, Root: root})
	}
	slices.SortFunc(f.SOA, func(a, b SOA) int { return cmp.Compare(a.Domain, b.Domain) })
	return f
}

// Tap collects the addresses of one week's capture as it is written.
type Tap struct {
	isoWeek int
	// all holds every IPv4 address a sampled frame carries, https the
	// ones on the port-443 side of a TCP frame: the only addresses the
	// analysis can ask a PTR name or a crawl of. Both repeat addresses;
	// the recorder sorts them out.
	all, https []packet.IPv4Addr
	// recent drops most repeats of all before they are stored: a
	// week's sampled servers recur many times over.
	recent [4096]packet.IPv4Addr
	frame  packet.Frame
}

// addr adds ip to all unless recent saw it last in its slot.
func (t *Tap) addr(ip packet.IPv4Addr) {
	slot := &t.recent[uint32(ip)*0x9e3779b1>>20]
	if *slot != ip {
		*slot = ip
		t.all = append(t.all, ip)
	}
}

// NewTap starts collecting isoWeek's addresses.
func NewTap(isoWeek int) *Tap { return &Tap{isoWeek: isoWeek} }

// Observe collects the addresses of d's sampled frames, decoded as the
// classifier decodes them. It does not retain d.
func (t *Tap) Observe(d *sflow.Datagram) {
	f := &t.frame
	for i := range d.Flows {
		fs := &d.Flows[i]
		if !fs.HasRaw || packet.Decode(fs.Raw.Header, f) != nil || !f.IsIPv4 {
			continue
		}
		t.addr(f.IPv4.Src)
		t.addr(f.IPv4.Dst)
		if f.Transport == packet.TransportTCP {
			if f.TCP.SrcPort == 443 {
				t.https = append(t.https, f.IPv4.Src)
			}
			if f.TCP.DstPort == 443 {
				t.https = append(t.https, f.IPv4.Dst)
			}
		}
	}
}

// Record hands the tapped week to the recorder, which asks the world's
// crawler for every port-443 address and its DNS for the PTR name of
// every address, keeping the answers that are not empty. A week
// recorded twice keeps the second recording. t must not be used after.
func (r *Recorder) Record(t *Tap) { r.weeks <- t }

// answers asks the world for one tapped week's answers.
func (r *Recorder) answers(t *Tap) Week {
	in := &r.env.Inputs
	w := Week{ISOWeek: t.isoWeek}
	slices.Sort(t.https)
	for _, ip := range slices.Compact(t.https) {
		if res := in.Crawler.Crawl(ip, t.isoWeek); res.Responded || len(res.Chains) > 0 {
			w.Crawl = append(w.Crawl, CrawlAnswer{IP: ip, Result: res})
		}
	}
	slices.Sort(t.all)
	for _, ip := range slices.Compact(t.all) {
		if name, ok := in.DNS.PTR(ip); ok {
			w.PTR = append(w.PTR, PTRAnswer{IP: ip, Name: name})
		}
	}
	return w
}

// Close stops the recorder without encoding, waiting for its goroutine
// and removing its spill file.
func (r *Recorder) Close() {
	if r.closed {
		return
	}
	r.closed = true
	close(r.weeks)
	<-r.done
	r.spill.Close()
	r.fsys.Remove(r.spill.Name())
}

// Encode waits for every recorded week and renders the inputs file.
func (r *Recorder) Encode() ([]byte, error) {
	close(r.weeks)
	<-r.done
	r.closed = true
	defer func() {
		r.spill.Close()
		r.fsys.Remove(r.spill.Name())
	}()
	if r.err != nil {
		return nil, r.err
	}
	buf := make([]byte, r.end)
	if _, err := r.spill.ReadAt(buf, 0); err != nil && r.end > 0 {
		return nil, err
	}
	secs := r.secs
	for name, at := range r.at {
		secs = append(secs, snapshot.Section{Name: name, Version: version, Payload: buf[at.off : at.off+at.n]})
	}
	return snapshot.AppendSections(nil, secs)
}

// Package analysis defines the pluggable per-week analyzer registry:
// every result family the paper derives from one week of sFlow records
// — server identification (§4), global visibility (§3), link
// attribution inputs (§5) — plugs in as an Analyzer with a per-shard
// observer, a deterministic merge and a versioned product codec. The
// pipeline feeds every registered analyzer from ONE sharded decode
// pass, so adding an analysis perspective never adds a rescan of the
// capture; the snapshot layer persists each product as one named,
// versioned section of the week's container.
//
// The shape mirrors the sharded webserver accumulator: NewState builds
// per-worker state sized to the classifier pool, Observe runs on the
// worker that classified the record (no cross-worker synchronization),
// and Finish performs the deterministic merge — aggregates must be
// partition-independent, so the fused pass is bit-identical to a serial
// reference run regardless of how records land on workers.
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
)

// Builtin analyzer (and snapshot section) names.
const (
	NameWebserver  = "webserver"
	NameVisibility = "visibility"
	NameLinks      = "links"
)

// Sentinel errors, testable with errors.Is.
var (
	// ErrVersion marks a product payload whose section version this
	// build cannot decode — newer than the analyzer, or garbage.
	ErrVersion = errors.New("analysis: unsupported product version")
	// ErrFormat marks a product payload that does not decode.
	ErrFormat = errors.New("analysis: malformed product payload")
	// ErrUnknownAnalyzer marks a Select list naming no builtin.
	ErrUnknownAnalyzer = errors.New("analysis: unknown analyzer")
)

// Context carries the substrates analyzers share for one run. Entities
// is required (the visibility and links analyzers key their
// accumulators by interned entity IDs); Crawler and Ident are optional
// and only consumed by the webserver analyzer.
type Context struct {
	Entities *entity.Table
	Crawler  webserver.CertCrawler
	// Ident, when non-nil, instruments the webserver analyzer's shard
	// merge exactly like the pre-registry identifier did.
	Ident *webserver.Metrics
}

// Product is one analyzer's finished, persistable result. AppendEncode
// must be deterministic — same product, same bytes — because snapshot
// digests and the golden equivalence suite bind to the encoding.
type Product interface {
	AppendEncode(dst []byte) ([]byte, error)
}

// State is one run's accumulator for one analyzer. Observe is called
// concurrently from the classifier pool, with each worker index used by
// at most one goroutine at a time — state must be per-worker, like the
// webserver identifier's shards. It sees peering records only, with
// both endpoints already resolved through Context.Entities: src and dst
// are the IDs of rec.SrcIP and rec.DstIP, equal exactly when the record
// is self-addressed. seq is the record's global stream position (for
// last-writer-wins tie-breaks); it carries no ordering guarantee across
// workers.
//
// Finish runs after the last Observe, alongside the other states'
// Finish calls on their own goroutines. It may read shared substrates
// (the entity table, the crawler) but must never intern into the entity
// table: intern order decides IDs, and a concurrent Finish would make
// it vary from run to run.
type State interface {
	Observe(worker int, rec *dissect.Record, src, dst entity.ID, seq uint64)
	Finish(isoWeek int) (Product, error)
}

// Analyzer is one pluggable analysis perspective.
type Analyzer interface {
	// Name is the analyzer's registry key and snapshot section name.
	Name() string
	// Version is the product encoding version Decode understands.
	Version() uint16
	// NewState builds the per-run accumulator, sized to the worker pool.
	NewState(actx *Context, workers int) State
	// Decode parses a persisted product of the given section version.
	Decode(version uint16, payload []byte) (Product, error)
}

// Registry is an immutable, name-unique analyzer set.
type Registry struct {
	analyzers []Analyzer // sorted by name
}

// NewRegistry builds a registry, rejecting duplicate names.
func NewRegistry(analyzers ...Analyzer) (*Registry, error) {
	sorted := make([]Analyzer, len(analyzers))
	copy(sorted, analyzers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Name() == sorted[i-1].Name() {
			return nil, fmt.Errorf("analysis: duplicate analyzer %q", sorted[i].Name())
		}
	}
	return &Registry{analyzers: sorted}, nil
}

var defaultRegistry = func() *Registry {
	r, err := NewRegistry(Webserver(), Visibility(), Links())
	if err != nil {
		panic(err)
	}
	return r
}()

// Default returns the registry of every builtin analyzer. The builtins
// are stateless, so the shared instance is safe for concurrent runs.
func Default() *Registry { return defaultRegistry }

// Select builds a registry from a comma-separated list of builtin
// analyzer names; "all" or an empty list selects every builtin. The
// webserver analyzer is always included — churn tracking, serving and
// the supervised pipeline's digest binding all require its product.
func Select(list string) (*Registry, error) {
	list = strings.TrimSpace(list)
	if list == "" || list == "all" {
		return Default(), nil
	}
	picked := map[string]Analyzer{NameWebserver: Webserver()}
	for _, name := range strings.Split(list, ",") {
		switch name = strings.TrimSpace(name); name {
		case NameWebserver:
		case NameVisibility:
			picked[name] = Visibility()
		case NameLinks:
			picked[name] = Links()
		default:
			return nil, fmt.Errorf("%w: %q (builtins: %s, %s, %s)",
				ErrUnknownAnalyzer, name, NameWebserver, NameVisibility, NameLinks)
		}
	}
	all := make([]Analyzer, 0, len(picked))
	for _, a := range picked {
		all = append(all, a)
	}
	return NewRegistry(all...)
}

// Names lists the registered analyzer names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, len(r.analyzers))
	for i, a := range r.analyzers {
		out[i] = a.Name()
	}
	return out
}

// Lookup finds an analyzer by name.
func (r *Registry) Lookup(name string) (Analyzer, bool) {
	for _, a := range r.analyzers {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Len is the number of registered analyzers.
func (r *Registry) Len() int { return len(r.analyzers) }

// NewRun prepares one week's fused pass: a per-worker state for every
// registered analyzer. Run.Observe satisfies dissect.ShardObserver, so
// one dissect.ProcessSharded pass (or a StreamProcessor fed by the
// pipeline's streaming loop) fans each record to all analyzers.
func (r *Registry) NewRun(actx *Context, workers int) *Run {
	if workers < 1 {
		workers = 1
	}
	states := make([]State, len(r.analyzers))
	for i, a := range r.analyzers {
		states[i] = a.NewState(actx, workers)
	}
	return &Run{reg: r, states: states, entities: actx.Entities}
}

// Run is one in-flight fused analysis pass.
type Run struct {
	reg      *Registry
	states   []State
	entities *entity.Table
}

// Observe resolves a peering record's endpoints once and fans the
// record and its IDs to every analyzer's worker state; other records
// return before any resolve. It matches dissect.ShardObserver.
func (r *Run) Observe(worker int, rec *dissect.Record, seq uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	src, dst := r.entities.ResolvePair(rec.SrcIP, rec.DstIP)
	for _, st := range r.states {
		st.Observe(worker, rec, src, dst, seq)
	}
}

// Finish merges every analyzer's shards deterministically and returns
// the product set in registry order. The states finish concurrently,
// one goroutine each, and all have returned before Finish does; when
// several fail, the error is the first failing analyzer's in registry
// order.
func (r *Run) Finish(isoWeek int) (*Products, error) {
	items := make([]NamedProduct, len(r.states))
	errs := make([]error, len(r.states))
	var wg sync.WaitGroup
	for i, st := range r.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items[i].P, errs[i] = st.Finish(isoWeek)
		}()
	}
	wg.Wait()
	for i, a := range r.reg.analyzers {
		if errs[i] != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name(), errs[i])
		}
		items[i].Name, items[i].Version = a.Name(), a.Version()
	}
	return &Products{items: items}, nil
}

// NamedProduct pairs a finished product with its registry identity, so
// the snapshot layer can persist analyzers it has no typed field for.
type NamedProduct struct {
	Name    string
	Version uint16
	P       Product
}

// Products is one run's finished product set, name-sorted.
type Products struct {
	items []NamedProduct
}

// All returns the products in name order.
func (p *Products) All() []NamedProduct { return p.items }

// Get returns the named product, nil when absent.
func (p *Products) Get(name string) Product {
	for i := range p.items {
		if p.items[i].Name == name {
			return p.items[i].P
		}
	}
	return nil
}

// Webserver returns the identification result, nil when the webserver
// analyzer was not registered.
func (p *Products) Webserver() *webserver.Result {
	if wp, ok := p.Get(NameWebserver).(*WebserverProduct); ok {
		return wp.Res
	}
	return nil
}

// Visibility returns the per-IP visibility product, nil when absent.
func (p *Products) Visibility() *VisibilityProduct {
	vp, _ := p.Get(NameVisibility).(*VisibilityProduct)
	return vp
}

// Links returns the peering-flow product, nil when absent.
func (p *Products) Links() *LinksProduct {
	lp, _ := p.Get(NameLinks).(*LinksProduct)
	return lp
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/pipeline"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
)

// ErrUnknownWeek marks a request for a week the campaign does not
// contain. Test with errors.Is.
var ErrUnknownWeek = errors.New("serve: week not in campaign")

// ErrQuarantinedWeek marks a request for a week the supervised campaign
// runner quarantined: its data never passed the pipeline, so serving it
// would present a hole as a measurement. Test with errors.Is.
var ErrQuarantinedWeek = errors.New("serve: week quarantined by campaign supervisor")

// Store materializes analyzed weeks from a campaign directory. A week
// loads from its on-disk snapshot when one exists and still matches
// the manifest's capture digest (milliseconds), and falls back to the
// full capture→dissect→identify pipeline otherwise (minutes at paper
// scale). With WriteSnapshots set, every analysis persists its result,
// so the first request for a week pays for all later ones.
//
// Load is safe for concurrent use with distinct weeks; the serving
// cache's single-flight layer guarantees one Load per week at a time.
type Store struct {
	dir            string
	env            *pipeline.Env
	man            *capture.Manifest
	writeSnapshots bool
	quarantined    map[int]bool
	m              *Metrics
}

// OpenStore rebuilds the campaign's measurement substrates from its
// manifest and returns a store over dir. writeSnapshots persists a
// snapshot after every full analysis.
func OpenStore(dir string, writeSnapshots bool) (*Store, error) {
	man, err := capture.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	env, err := man.Rebuild()
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, env: env, man: man, writeSnapshots: writeSnapshots, m: NewMetrics(nil)}
	// A supervise journal in the campaign directory tells us which weeks
	// the runner quarantined. A missing journal means an unsupervised
	// campaign (nothing quarantined); a damaged one is ignored — the
	// journal is the supervisor's ledger, not a serving dependency.
	if jst, err := supervise.ReadState(dir); err == nil {
		st.SetQuarantined(jst.QuarantinedWeeks())
	}
	return st, nil
}

// SetMetrics attaches the serving metrics bundle (never nil after
// OpenStore; call before the store is shared).
func (st *Store) SetMetrics(m *Metrics) {
	if m != nil {
		st.m = m
	}
}

// SetQuarantined records the weeks the campaign supervisor quarantined.
// Load refuses them with ErrQuarantinedWeek and the serving layer
// reports them through /healthz and as gaps in /churn. Call before the
// store is shared.
func (st *Store) SetQuarantined(weeks []int) {
	st.quarantined = make(map[int]bool, len(weeks))
	for _, wk := range weeks {
		st.quarantined[wk] = true
	}
}

// Quarantined lists the quarantined weeks in chronological (manifest)
// order.
func (st *Store) Quarantined() []int {
	var out []int
	for _, wk := range st.man.Weeks {
		if st.quarantined[wk] {
			out = append(out, wk)
		}
	}
	return out
}

// IsQuarantined reports whether isoWeek is quarantined.
func (st *Store) IsQuarantined(isoWeek int) bool { return st.quarantined[isoWeek] }

// Env exposes the campaign's rebuilt environment (entity table, DNS,
// fabric) for endpoints that resolve results further.
func (st *Store) Env() *pipeline.Env { return st.env }

// Manifest exposes the campaign manifest.
func (st *Store) Manifest() *capture.Manifest { return st.man }

// Weeks lists the campaign's ISO weeks in manifest (chronological)
// order.
func (st *Store) Weeks() []int { return st.man.Weeks }

// weekIndex finds isoWeek's position in the manifest.
func (st *Store) weekIndex(isoWeek int) (int, bool) {
	for i, w := range st.man.Weeks {
		if w == isoWeek {
			return i, true
		}
	}
	return 0, false
}

// Load returns the analyzed week, opened from its snapshot when
// possible: verified in full, its server list indexed, its result built
// only if an endpoint asks for it. The returned week is shared and must
// be treated as immutable.
func (st *Store) Load(ctx context.Context, isoWeek int) (*snapshot.Opened, error) {
	i, ok := st.weekIndex(isoWeek)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownWeek, isoWeek)
	}
	if st.quarantined[isoWeek] {
		return nil, fmt.Errorf("%w: %d", ErrQuarantinedWeek, isoWeek)
	}
	digest := ""
	if i < len(st.man.Digests) {
		digest = st.man.Digests[i]
	}
	// A missing, damaged, stale or product-incomplete snapshot degrades
	// to re-analysis — the snapshot layer is an accelerator, never a
	// correctness dependency. The product check upgrades legacy
	// single-product (v1) snapshots: an endpoint needing visibility or
	// links never 404s just because the snapshot predates them.
	fsys := st.env.VFS()
	spath := filepath.Join(st.dir, snapshot.FileName(isoWeek))
	if wk, err := snapshot.OpenFileFS(fsys, spath); err == nil &&
		wk.Header().Week == isoWeek && freshSnapshot(wk.SourceDigest, digest) &&
		st.completeSnapshot(wk) {
		st.m.SnapshotLoads.Inc()
		return wk, nil
	}
	start := time.Now()
	snap, err := capture.AnalyzeWeekSnapshot(ctx, st.env, filepath.Join(st.dir, st.man.Files[i]), isoWeek)
	if err != nil {
		return nil, err
	}
	st.m.Analyses.Inc()
	st.m.AnalyzeNanos.ObserveSince(start)
	// The analysis hashed the bytes it decoded into snap.SourceDigest. A
	// manifest digest that disagrees means the capture on disk is damaged:
	// the answer still goes out — block quarantine has already priced the
	// damage into EstLoss — but it is not persisted, or the damaged week
	// would load as a fresh snapshot from then on.
	if digest != "" && snap.SourceDigest != digest {
		st.m.DigestMismatch.Inc()
		return snap.Opened(), nil
	}
	if st.writeSnapshots {
		if _, err := snapshot.SaveFileFS(fsys, spath, snap); err != nil {
			st.m.SnapshotWriteErrors.Inc()
		} else {
			st.m.SnapshotWrites.Inc()
		}
	}
	return snap.Opened(), nil
}

// completeSnapshot reports whether wk carries every product the
// store's analyzer registry serves.
func (st *Store) completeSnapshot(wk *snapshot.Opened) bool {
	for _, name := range st.env.Registry().Names() {
		if !wk.HasProduct(name) {
			return false
		}
	}
	return true
}

// freshSnapshot reports whether a loaded snapshot's source digest still
// corresponds to the manifest's capture file. When either side lacks a
// digest (a v1 campaign without per-week digests, or a snapshot written
// outside a campaign) the check cannot bind them and the snapshot is
// trusted.
func freshSnapshot(sourceDigest, manifestDigest string) bool {
	return sourceDigest == "" || manifestDigest == "" || sourceDigest == manifestDigest
}

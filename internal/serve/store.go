package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"ixplens/internal/analysis"
	"ixplens/internal/capture"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
	"ixplens/internal/vfs"
)

// ErrUnknownWeek marks a request for a week the campaign does not
// contain. Test with errors.Is.
var ErrUnknownWeek = errors.New("serve: week not in campaign")

// ErrQuarantinedWeek marks a request for a week the supervised campaign
// runner quarantined: its data never passed the pipeline, so serving it
// would present a hole as a measurement. Test with errors.Is.
var ErrQuarantinedWeek = errors.New("serve: week quarantined by campaign supervisor")

// ErrNotMined marks a request for a week whose snapshot this build
// cannot answer from: missing, stale against the manifest's capture
// digest, undecodable, or written by a build that recorded no
// attributes. The server never analyzes a capture itself; one ixpmine
// run over the campaign writes (or upgrades) every snapshot. Test with
// errors.Is.
var ErrNotMined = errors.New("not mined by this build: run ixpmine")

// Store opens analyzed weeks from a mined campaign directory: each
// week from its on-disk snapshot, which must still match the manifest's
// capture digest and carry the attributes section. It holds the
// manifest and the supervise journal's quarantine list, nothing else —
// no world, no capture reader.
//
// Load is safe for concurrent use with distinct weeks; the serving
// cache's single-flight layer guarantees one Load per week at a time.
type Store struct {
	dir         string
	man         *capture.Manifest
	quarantined map[int]bool
	m           *Metrics
}

// OpenStore reads the campaign's manifest and supervise journal and
// returns a store over dir. writeSnapshots is ignored: the store only
// reads snapshots, and ixpmine writes them.
func OpenStore(dir string, writeSnapshots bool) (*Store, error) {
	man, err := capture.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, man: man, m: NewMetrics(nil)}
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

// Load opens the week's snapshot: verified in full, its server list
// indexed, its products left in the file until an endpoint reads them.
// A week whose snapshot is missing, stale, undecodable or without
// attributes fails with ErrNotMined. The returned week is shared and
// must be treated as immutable.
func (st *Store) Load(ctx context.Context, isoWeek int) (*snapshot.Opened, error) {
	i, ok := st.weekIndex(isoWeek)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownWeek, isoWeek)
	}
	if st.quarantined[isoWeek] {
		return nil, fmt.Errorf("%w: %d", ErrQuarantinedWeek, isoWeek)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	digest := ""
	if i < len(st.man.Digests) {
		digest = st.man.Digests[i]
	}
	wk, err := snapshot.OpenFileFS(vfs.Default, filepath.Join(st.dir, snapshot.FileName(isoWeek)))
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: week %d: %v", ErrNotMined, isoWeek, err)
	case wk.Header().Week != isoWeek:
		return nil, fmt.Errorf("%w: week %d: snapshot holds week %d", ErrNotMined, isoWeek, wk.Header().Week)
	case !freshSnapshot(wk.SourceDigest, digest):
		return nil, fmt.Errorf("%w: week %d: snapshot is stale against the manifest", ErrNotMined, isoWeek)
	case !wk.HasProduct(analysis.NameAttributes):
		return nil, fmt.Errorf("%w: week %d: snapshot has no attributes", ErrNotMined, isoWeek)
	}
	st.m.SnapshotLoads.Inc()
	return wk, nil
}

// freshSnapshot reports whether a loaded snapshot's source digest still
// corresponds to the manifest's capture file. When either side lacks a
// digest (an empty manifest entry, or a snapshot written outside a
// campaign) the check cannot bind them and the snapshot is trusted.
func freshSnapshot(sourceDigest, manifestDigest string) bool {
	return sourceDigest == "" || manifestDigest == "" || sourceDigest == manifestDigest
}

package pipeline

import (
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/ixp"
	"ixplens/internal/obs"
	"ixplens/internal/sflow"
)

// Metrics bundles the per-stage observability of one environment: the
// collector's export path, the dissection cascade, server
// identification, and the longitudinal driver itself. A nil *Metrics
// (the default — see Env.Instrument) disables instrumentation
// everywhere; the accessors below are nil-safe so wiring code never has
// to branch.
type Metrics struct {
	Registry  *obs.Registry
	Collector *ixp.CollectorMetrics
	Dissect   *dissect.Metrics
	Identify  *webserver.Metrics
	// Entity tracks the interning layer: memo hits/misses over every
	// run's table, and the size of the newest run's.
	Entity *entity.Metrics
	// WeekNanos is the wall-time distribution of one week's light
	// pipeline run (stream + identify); Weeks counts completed weeks.
	WeekNanos *obs.Histogram
	Weeks     *obs.Counter
	// WorkerBusy accumulates the nanoseconds TrackWeeks workers spent on
	// week work; Utilization is busy time over wall time × workers, in
	// percent, set once per TrackWeeks run.
	WorkerBusy  *obs.Counter
	Utilization *obs.Gauge
	// SeqGaps counts datagrams inferred lost from sFlow sequence gaps
	// across all analysed weeks; EstLossBP is the latest analysed week's
	// estimated loss fraction in basis points (1/100 of a percent).
	SeqGaps   *obs.Counter
	EstLossBP *obs.Gauge
	// Capture-file (v2 block container) accounting: blocks read and
	// verified, blocks quarantined by checksum, datagrams lost inside
	// them, crash-truncated files encountered, and decoded-vs-on-disk
	// payload volume.
	CaptureBlocks        *obs.Counter
	CaptureBlocksCorrupt *obs.Counter
	CaptureQuarantined   *obs.Counter
	CaptureTruncated     *obs.Counter
	CaptureRawBytes      *obs.Counter
	CaptureDiskBytes     *obs.Counter
}

// NewMetrics builds the full bundle against a registry; nil in, nil out.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Registry:    r,
		Collector:   ixp.NewCollectorMetrics(r),
		Dissect:     dissect.NewMetrics(r),
		Identify:    webserver.NewMetrics(r),
		Entity:      entity.NewMetrics(r),
		WeekNanos:   r.Histogram("pipeline_week_ns"),
		Weeks:       r.Counter("pipeline_weeks_total"),
		WorkerBusy:  r.Counter("pipeline_worker_busy_ns"),
		Utilization: r.Gauge("pipeline_worker_utilization_pct"),
		SeqGaps:     r.Counter("pipeline_seq_gap_datagrams_total"),
		EstLossBP:   r.Gauge("pipeline_est_loss_bp"),

		CaptureBlocks:        r.Counter("capture_blocks_read_total"),
		CaptureBlocksCorrupt: r.Counter("capture_blocks_corrupt_total"),
		CaptureQuarantined:   r.Counter("capture_datagrams_quarantined_total"),
		CaptureTruncated:     r.Counter("capture_truncated_files_total"),
		CaptureRawBytes:      r.Counter("capture_block_raw_bytes_total"),
		CaptureDiskBytes:     r.Counter("capture_block_disk_bytes_total"),
	}
}

// observeSeq folds one week's sequence-gap accounting into the bundle.
// Nil-safe like every accessor.
func (m *Metrics) observeSeq(st sflow.SeqStats) {
	if m == nil {
		return
	}
	m.SeqGaps.Add(st.GapDatagrams)
	m.EstLossBP.Set(int64(st.EstLoss() * 10_000))
}

// ObserveCapture folds one capture file's block accounting into the
// bundle. Nil-safe like every accessor.
func (m *Metrics) ObserveCapture(st sflow.BlockStats) {
	if m == nil {
		return
	}
	m.CaptureBlocks.Add(st.Blocks)
	m.CaptureBlocksCorrupt.Add(st.CorruptBlocks)
	m.CaptureQuarantined.Add(st.QuarantinedDatagrams)
	m.CaptureRawBytes.Add(st.RawBytes)
	m.CaptureDiskBytes.Add(st.DiskBytes)
	if st.Truncated {
		m.CaptureTruncated.Inc()
	}
}

// CollectorMetrics returns the collector sub-bundle, nil when disabled.
func (m *Metrics) CollectorMetrics() *ixp.CollectorMetrics {
	if m == nil {
		return nil
	}
	return m.Collector
}

// DissectMetrics returns the dissection sub-bundle, nil when disabled.
func (m *Metrics) DissectMetrics() *dissect.Metrics {
	if m == nil {
		return nil
	}
	return m.Dissect
}

// IdentifyMetrics returns the identification sub-bundle, nil when
// disabled.
func (m *Metrics) IdentifyMetrics() *webserver.Metrics {
	if m == nil {
		return nil
	}
	return m.Identify
}

// EntityMetrics returns the interning sub-bundle, nil when disabled.
func (m *Metrics) EntityMetrics() *entity.Metrics {
	if m == nil {
		return nil
	}
	return m.Entity
}

// Instrument attaches an observability registry to the environment:
// every pipeline run after the call feeds the per-stage metric bundles
// built against r. Passing nil detaches instrumentation (the default
// state of a fresh Env).
func (e *Env) Instrument(r *obs.Registry) { e.M = NewMetrics(r) }

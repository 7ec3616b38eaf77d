package dissect

import "ixplens/internal/obs"

// Metrics is the dissection stage's observability bundle. A nil *Metrics
// disables instrumentation entirely; hot paths gate on the pointer so
// the disabled cost is a single predictable branch. The counters are
// atomics, so one bundle is safely shared by every classifier worker of
// a StreamProcessor.
type Metrics struct {
	// Records counts every classified sample; Undecodable and Peering
	// tally the cascade's first and last buckets.
	Records     *obs.Counter
	Undecodable *obs.Counter
	Peering     *obs.Counter
	// Batches counts work units dispatched to the classifier workers;
	// QueueDepth tracks how many sit unclaimed in the job queue; and
	// BatchNanos is the dispatch-to-done latency distribution.
	Batches    *obs.Counter
	QueueDepth *obs.Gauge
	BatchNanos *obs.Histogram
	// PanicQuarantined counts samples discarded because classification or
	// an observer callback panicked on their batch (see
	// Counts.PanicQuarantined).
	PanicQuarantined *obs.Counter
}

// NewMetrics builds the bundle against a registry; nil in, nil out.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Records:          r.Counter("dissect_records_total"),
		Undecodable:      r.Counter("dissect_undecodable_total"),
		Peering:          r.Counter("dissect_peering_total"),
		Batches:          r.Counter("dissect_batches_total"),
		QueueDepth:       r.Gauge("dissect_queue_depth"),
		BatchNanos:       r.Histogram("dissect_batch_latency_ns"),
		PanicQuarantined: r.Counter("dissect_panic_quarantined_total"),
	}
}

// record tallies one classification outcome. Callers gate on m != nil.
func (m *Metrics) record(cl Class) {
	m.Records.Inc()
	switch {
	case cl == ClassUndecodable:
		m.Undecodable.Inc()
	case cl.IsPeering():
		m.Peering.Inc()
	}
}

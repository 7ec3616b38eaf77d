package supervise

import "ixplens/internal/obs"

// Breaker state gauge values.
const (
	// BreakerClosed: attempts flow normally.
	BreakerClosed = 0
	// BreakerHalfOpen: a previously quarantined week is being retried.
	BreakerHalfOpen = 1
	// BreakerOpen: at least one week is quarantined.
	BreakerOpen = 2
)

// Metrics is the supervisor's observability bundle. A nil *Metrics
// disables instrumentation; every field is nil-safe through the obs
// package's contracts.
type Metrics struct {
	// Retries counts retried attempts (attempt ≥ 2 starts).
	Retries *obs.Counter
	// Quarantined tracks the current number of quarantined weeks.
	Quarantined *obs.Gauge
	// StageNanos is the wall-time distribution of individual stage
	// executions (capture, analyze, snapshot alike).
	StageNanos *obs.Histogram
	// Breaker reports the campaign-wide breaker state: closed while all
	// weeks flow, half-open while a quarantined week retries, open when
	// any week is quarantined.
	Breaker *obs.Gauge
	// WeeksDone counts weeks that reached done this run; WeeksResumed
	// counts the subset that were verified complete with no work.
	WeeksDone    *obs.Counter
	WeeksResumed *obs.Counter
	// WatchdogFires counts stage attempts cut short by the per-stage
	// watchdog deadline.
	WatchdogFires *obs.Counter
	// StorageFull counts storage-full waits: attempts deferred by the
	// ENOSPC degraded mode (capped backoff outside the retry budget)
	// instead of failing toward quarantine.
	StorageFull *obs.Counter
	// DigestMismatch counts analyses discarded because the bytes they read
	// did not have the digest vouching for the capture file.
	DigestMismatch *obs.Counter
}

// NewMetrics builds the bundle against a registry; nil in, nil out.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Retries:        r.Counter("supervise_retries_total"),
		Quarantined:    r.Gauge("supervise_quarantined_weeks"),
		StageNanos:     r.Histogram("supervise_stage_ns"),
		Breaker:        r.Gauge("supervise_breaker_state"),
		WeeksDone:      r.Counter("supervise_weeks_done_total"),
		WeeksResumed:   r.Counter("supervise_weeks_resumed_total"),
		WatchdogFires:  r.Counter("supervise_watchdog_fires_total"),
		StorageFull:    r.Counter("supervise_storage_full_total"),
		DigestMismatch: r.Counter("supervise_capture_digest_mismatch_total"),
	}
}

// nil-safe accessors used by the supervisor.

func (m *Metrics) retries() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Retries
}

func (m *Metrics) quarantined() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.Quarantined
}

func (m *Metrics) stageNanos() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.StageNanos
}

func (m *Metrics) breaker() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.Breaker
}

func (m *Metrics) weeksDone() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.WeeksDone
}

func (m *Metrics) weeksResumed() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.WeeksResumed
}

func (m *Metrics) watchdogFires() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.WatchdogFires
}

func (m *Metrics) storageFull() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.StorageFull
}

func (m *Metrics) digestMismatch() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.DigestMismatch
}

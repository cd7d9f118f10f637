package server

import (
	"encoding/json"
	"sync/atomic"

	"ladiff/internal/obs"
	"ladiff/internal/sched"
	"ladiff/internal/store"
)

// Phase indexes the per-phase latency histograms: the four stages every
// diff request passes through. Patch requests record parse and render
// only.
type Phase int

const (
	PhaseParse Phase = iota
	PhaseMatch
	PhaseGenerate
	PhaseRender
	numPhases
)

var phaseNames = [numPhases]string{"parse", "match", "generate", "render"}

// Metrics is the expvar-style counter set behind GET /metrics. All
// fields are updated with atomics; a snapshot is taken per scrape.
// Counter semantics (documented in DESIGN.md §8); the failure counters
// follow fail's table, and a refusal counted nowhere (503 cancelled
// while queued, 429 jobs_full) is left out:
//
//	requests_total            every request that reached a /v1 route (counted by lifecycle)
//	diffs_total/patches_total successfully completed diff/patch requests
//	in_flight                 units currently holding a worker slot (requests, batch items)
//	queued                    units waiting for a slot right now
//	rejected_queue_total      429s: queue_full (admission queue overflow), feeds_exhausted
//	rejected_size_total       413s: too_large body, tree_too_large, batch over its item/byte bound
//	rejected_draining_total   503 draining: arrived while draining
//	timeouts_total            504s: per-request deadline expired mid-pipeline
//	bad_requests_total        400s (malformed JSON, a body that is not valid UTF-8,
//	                          unknown format/output/matcher/mode, parse_error),
//	                          404 not_found (document, version or job id),
//	                          409 format_mismatch and rebase_boundary
//	errors_total              500 internal (a contained panic counts in panics_total
//	                          instead), 422 patch_error, 503 store_unavailable and over_budget
//	panics_total              panics contained by the recovery middleware (each also a 500)
//	degraded_total            successful responses served in a degraded mode (budget
//	                          fallback to FastMatch, or scan-generator fallback)
//	old_nodes_total/new_nodes_total  cumulative document node counts (workload volume):
//	                                 parsed, or taken from the cached Stats on a hit
//	cache.{hits,misses,evictions}    diff-cache traffic: a diff counts one hit (at the
//	                                 body or the source key) or one miss (at the source
//	                                 key, before the parse, so a request whose documents
//	                                 then fail to parse counts one too); all zero when
//	                                 DiffCacheEntries is 0
//	cache.{size,capacity}            current entry count and configured bound
//	phase_us.<phase>          latency histogram of each *completed* phase —
//	                          a request that dies mid-phase never records it,
//	                          which is how a deadline abort is observable here
//	request_us                end-to-end latency histogram of accepted requests
type Metrics struct {
	Requests         atomic.Int64
	Diffs            atomic.Int64
	Patches          atomic.Int64
	InFlight         atomic.Int64
	Queued           atomic.Int64
	RejectedQueue    atomic.Int64
	RejectedSize     atomic.Int64
	RejectedDraining atomic.Int64
	Timeouts         atomic.Int64
	BadRequests      atomic.Int64
	Errors           atomic.Int64
	Panics           atomic.Int64
	Degraded         atomic.Int64
	OldNodes         atomic.Int64
	NewNodes         atomic.Int64

	// Diff-cache counters: diffCache keeps misses, evictions and size,
	// the server counts a hit once the request holds a slot (countHit),
	// and CacheCapacity is set once at New. All stay zero when the
	// cache is disabled.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64
	CacheSize      atomic.Int64
	CacheCapacity  atomic.Int64

	// Batch counters: envelopes and the items fanned out of them (each
	// item also counts in the per-item counters above, exactly as the
	// equivalent single request would).
	BatchRequests atomic.Int64
	BatchItems    atomic.Int64

	// Jobs is the async-job store's exactly-once accounting, owned by
	// sched.JobStore (see sched.JobCounters for the invariant).
	Jobs sched.JobCounters

	// Webhook delivery outcomes: a delivery is one job's terminal
	// notification, counted once however many attempts it took.
	WebhookDeliveries atomic.Int64
	WebhookFailures   atomic.Int64

	PhaseLatency   [numPhases]Histogram
	RequestLatency Histogram
}

// Histogram is the shared log₂-µs latency histogram of the process
// metrics registry (internal/obs). The bucket upper edges are
// inclusive, so quantile estimates are conservative strictly within
// 2× — including at exact powers of two; the boundary tests in
// internal/obs pin the math.
type Histogram = obs.Histogram

// HistogramSnapshot is the wire form of one histogram.
type HistogramSnapshot = obs.HistogramSnapshot

// MetricsSnapshot is the JSON document GET /metrics serves.
type MetricsSnapshot struct {
	RequestsTotal         int64 `json:"requests_total"`
	DiffsTotal            int64 `json:"diffs_total"`
	PatchesTotal          int64 `json:"patches_total"`
	InFlight              int64 `json:"in_flight"`
	Queued                int64 `json:"queued"`
	RejectedQueueTotal    int64 `json:"rejected_queue_total"`
	RejectedSizeTotal     int64 `json:"rejected_size_total"`
	RejectedDrainingTotal int64 `json:"rejected_draining_total"`
	TimeoutsTotal         int64 `json:"timeouts_total"`
	BadRequestsTotal      int64 `json:"bad_requests_total"`
	ErrorsTotal           int64 `json:"errors_total"`
	PanicsTotal           int64 `json:"panics_total"`
	DegradedTotal         int64 `json:"degraded_total"`
	OldNodesTotal         int64 `json:"old_nodes_total"`
	NewNodesTotal         int64 `json:"new_nodes_total"`
	// Cache reports the diff cache: hit/miss/eviction traffic plus
	// current size and configured capacity (all zero when
	// DiffCacheEntries is 0).
	Cache CacheSnapshot `json:"cache"`
	// Batch reports POST /v1/diff/batch traffic: envelopes and the
	// items fanned out of them.
	Batch BatchSnapshot `json:"batch"`
	// Jobs reports the async-job store: the exactly-once lifecycle
	// counters plus webhook delivery outcomes.
	Jobs JobsSnapshot `json:"jobs"`
	// Store reports the versioned document store (docs, versions, noop
	// ingests, feed fan-out and drop counters); nil when no store is
	// configured. Populated by the scrape handler, not by Snapshot —
	// the store owns its own counters.
	Store     *store.Stats                 `json:"store,omitempty"`
	PhaseUS   map[string]HistogramSnapshot `json:"phase_us"`
	RequestUS HistogramSnapshot            `json:"request_us"`
	// Engine merges the process-wide obs registry into the scrape: the
	// engine-level gauges (match/gen-index fallbacks, buffer-pool
	// gets/allocs/recycles). The gauges update
	// only while observability is armed (ladiffd -obs, on by default),
	// so a disabled process reports zeros here at no hot-path cost.
	Engine map[string]int64 `json:"engine"`
}

// CacheSnapshot is the wire form of the diff-cache counters.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int64 `json:"size"`
	Capacity  int64 `json:"capacity"`
}

// BatchSnapshot is the wire form of the batch counters.
type BatchSnapshot struct {
	RequestsTotal int64 `json:"batch_requests_total"`
	ItemsTotal    int64 `json:"batch_items_total"`
}

// JobsSnapshot is the wire form of the async-job counters. Queued and
// Running are gauges; the rest are cumulative. The store invariant:
// submitted_total always equals jobs_queued + jobs_running + done +
// failed + canceled, and every terminal job is eventually counted by
// exactly one of expired_total (TTL sweep) or deleted_total (explicit
// eviction).
type JobsSnapshot struct {
	SubmittedTotal         int64 `json:"submitted_total"`
	RejectedTotal          int64 `json:"rejected_total"`
	Queued                 int64 `json:"jobs_queued"`
	Running                int64 `json:"jobs_running"`
	DoneTotal              int64 `json:"jobs_done_total"`
	FailedTotal            int64 `json:"jobs_failed_total"`
	CanceledTotal          int64 `json:"jobs_canceled_total"`
	ExpiredTotal           int64 `json:"jobs_expired_total"`
	DeletedTotal           int64 `json:"jobs_deleted_total"`
	WebhookDeliveriesTotal int64 `json:"webhook_deliveries_total"`
	WebhookFailuresTotal   int64 `json:"webhook_failures_total"`
}

// Snapshot captures every counter at one instant (counters are read
// individually; the snapshot is not a single atomic cut, which is fine
// for monitoring).
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		RequestsTotal:         m.Requests.Load(),
		DiffsTotal:            m.Diffs.Load(),
		PatchesTotal:          m.Patches.Load(),
		InFlight:              m.InFlight.Load(),
		Queued:                m.Queued.Load(),
		RejectedQueueTotal:    m.RejectedQueue.Load(),
		RejectedSizeTotal:     m.RejectedSize.Load(),
		RejectedDrainingTotal: m.RejectedDraining.Load(),
		TimeoutsTotal:         m.Timeouts.Load(),
		BadRequestsTotal:      m.BadRequests.Load(),
		ErrorsTotal:           m.Errors.Load(),
		PanicsTotal:           m.Panics.Load(),
		DegradedTotal:         m.Degraded.Load(),
		OldNodesTotal:         m.OldNodes.Load(),
		NewNodesTotal:         m.NewNodes.Load(),
		Cache: CacheSnapshot{
			Hits:      m.CacheHits.Load(),
			Misses:    m.CacheMisses.Load(),
			Evictions: m.CacheEvictions.Load(),
			Size:      m.CacheSize.Load(),
			Capacity:  m.CacheCapacity.Load(),
		},
		Batch: BatchSnapshot{
			RequestsTotal: m.BatchRequests.Load(),
			ItemsTotal:    m.BatchItems.Load(),
		},
		Jobs: JobsSnapshot{
			SubmittedTotal:         m.Jobs.Submitted.Load(),
			RejectedTotal:          m.Jobs.Rejected.Load(),
			Queued:                 m.Jobs.Queued.Load(),
			Running:                m.Jobs.Running.Load(),
			DoneTotal:              m.Jobs.Done.Load(),
			FailedTotal:            m.Jobs.Failed.Load(),
			CanceledTotal:          m.Jobs.Canceled.Load(),
			ExpiredTotal:           m.Jobs.Expired.Load(),
			DeletedTotal:           m.Jobs.Deleted.Load(),
			WebhookDeliveriesTotal: m.WebhookDeliveries.Load(),
			WebhookFailuresTotal:   m.WebhookFailures.Load(),
		},
		PhaseUS:   make(map[string]HistogramSnapshot, numPhases),
		RequestUS: m.RequestLatency.Snapshot(),
		Engine:    obs.Default.Counters(),
	}
	for p := Phase(0); p < numPhases; p++ {
		s.PhaseUS[phaseNames[p]] = m.PhaseLatency[p].Snapshot()
	}
	return s
}

// MarshalJSON serves the snapshot, so a *Metrics can be encoded
// directly.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the process-wide metric namespace: named atomic
// counters and log₂-µs histograms. Counter returns a stable pointer,
// so instrumented code resolves its counters once (package init) and
// pays one atomic add per update; the registry lock is only taken on
// first registration and on snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*atomic.Int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*atomic.Int64),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry: the engine gauges below live
// here, and the server merges it into GET /metrics.
var Default = NewRegistry()

// Engine-level gauges, updated at phase boundaries (never in inner
// loops) and only while observability is armed:
//
//	engine_match_fallbacks_total    budget fallbacks simple/zs → fastmatch
//	engine_gen_index_fallbacks_total indexed generator → scan retries
//	server_pool_gets_total          buffer-pool checkouts
//	server_pool_allocs_total        pool misses (fresh allocations);
//	                                recycles = gets − allocs
var (
	MatchFallbacks    = Default.Counter("engine_match_fallbacks_total")
	GenIndexFallbacks = Default.Counter("engine_gen_index_fallbacks_total")
	PoolGets          = Default.Counter("server_pool_gets_total")
	PoolAllocs        = Default.Counter("server_pool_allocs_total")
)

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable for the registry's lifetime.
func (r *Registry) Counter(name string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = new(Histogram)
		r.histograms[name] = h
	}
	return h
}

// Counters returns a point-in-time copy of every counter, plus the
// derived server_pool_recycles_total (gets − allocs) when the pool
// gauges are present.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+1)
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	if gets, ok := out["server_pool_gets_total"]; ok {
		out["server_pool_recycles_total"] = gets - out["server_pool_allocs_total"]
	}
	return out
}

// Histograms returns a point-in-time snapshot of every histogram.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// HistBuckets is the number of power-of-two microsecond buckets:
// bucket 0 holds exact-zero samples and bucket i (i ≥ 1) holds
// (2^(i-2), 2^(i-1)] µs, so the range spans 1 µs to beyond 2²⁵ µs
// (~34 s) with the final bucket absorbing everything larger.
const HistBuckets = 28

// Histogram is a fixed-bucket log₂-scale latency histogram, safe for
// concurrent Observe and snapshot. Bucket upper edges are inclusive,
// so a sample of exactly 2^k µs lands in the bucket whose reported
// upper bound is 2^k — quantile estimates are conservative (an upper
// bound) and strictly within 2× of the true value, including at exact
// powers of two. (The first cut of this histogram used half-open
// buckets [2^(i-1), 2^i), under which a 2^k-µs sample was reported as
// 2^(k+1) — an error of exactly 2×, violating the within-2× contract
// precisely at the boundaries. The boundary unit tests pin the fix.)
type Histogram struct {
	counts [HistBuckets]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64
}

// bucketOf maps a non-negative microsecond sample to its bucket:
// 0 → 0, and us ≥ 1 → 1 + ceil(log₂ us), clamped to the last bucket.
func bucketOf(us int64) int {
	if us <= 0 {
		return 0
	}
	idx := 1 + bits.Len64(uint64(us-1)) // 1 µs → 1, 2 µs → 2, 3-4 µs → 3, 5-8 µs → 4, ...
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// bucketEdge is the inclusive upper bound (µs) reported for bucket i.
func bucketEdge(i int) int64 {
	if i == 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// Count returns the number of samples recorded so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramSnapshot is the wire form of one histogram: counts, sum,
// and quantile upper bounds (each quantile reports the inclusive
// upper edge of the bucket containing it, so estimates are
// conservative within 2×).
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumUS int64 `json:"sum_us"`
	P50US int64 `json:"p50_us"`
	P95US int64 `json:"p95_us"`
	P99US int64 `json:"p99_us"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [HistBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, SumUS: h.sumUS.Load()}
	s.P50US = Quantile(counts[:], total, 0.50)
	s.P95US = Quantile(counts[:], total, 0.95)
	s.P99US = Quantile(counts[:], total, 0.99)
	return s
}

// Quantile returns the inclusive upper bound (in µs) of the bucket
// containing the q-quantile, or 0 for an empty histogram.
func Quantile(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= target {
			return bucketEdge(i)
		}
	}
	return bucketEdge(len(counts) - 1)
}

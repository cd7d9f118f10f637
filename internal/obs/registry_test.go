package obs

import (
	"testing"
	"time"
)

// TestCounterStablePointer pins the registration contract: the same
// name always resolves to the same counter, so package-init resolution
// plus atomic adds is sound.
func TestCounterStablePointer(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name returned different counters")
	}
	a.Add(3)
	if got := r.Counters()["x_total"]; got != 3 {
		t.Errorf("counter snapshot %d, want 3", got)
	}
}

// TestDerivedPoolRecycles pins the derived gauge: recycles = gets − allocs,
// present only when the pool gauges are.
func TestDerivedPoolRecycles(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Counters()["server_pool_recycles_total"]; ok {
		t.Fatal("derived recycles present without pool gauges")
	}
	r.Counter("server_pool_gets_total").Add(10)
	r.Counter("server_pool_allocs_total").Add(4)
	if got := r.Counters()["server_pool_recycles_total"]; got != 6 {
		t.Errorf("recycles %d, want 6", got)
	}
}

// TestDefaultRegistryGauges pins that the engine gauges are registered
// under their documented names in the Default registry.
func TestDefaultRegistryGauges(t *testing.T) {
	names := Default.Counters()
	for _, want := range []string{
		"engine_match_fallbacks_total",
		"engine_gen_index_fallbacks_total",
		"server_pool_gets_total",
		"server_pool_allocs_total",
		"server_pool_recycles_total",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("Default registry missing gauge %q", want)
		}
	}
}

// TestHistogramBucketBoundaries is the off-by-one regression test: a
// sample of exactly 2^k µs must be reported with upper edge 2^k, not
// 2^(k+1). (The original server histogram used half-open buckets
// [2^(i-1), 2^i); a 1024 µs sample was reported as 2048 µs — an error
// of exactly 2×, violating the within-2× contract precisely at powers
// of two.) One-past-a-power must land in the next bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		us   int64
		want int64 // reported p50 upper edge for a single sample
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{1000, 1024},
		{1024, 1024}, // the exact-power case the fix is about
		{1025, 2048},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(time.Duration(c.us) * time.Microsecond)
		snap := h.Snapshot()
		if snap.P50US != c.want {
			t.Errorf("Observe(%dµs): p50 edge %d, want %d", c.us, snap.P50US, c.want)
		}
		if snap.Count != 1 || snap.SumUS != c.us {
			t.Errorf("Observe(%dµs): count %d sum %d", c.us, snap.Count, snap.SumUS)
		}
	}
}

// TestHistogramOverflowClamps pins that samples beyond the last bucket
// edge are absorbed by it rather than dropped.
func TestHistogramOverflowClamps(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour)
	snap := h.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("overflow sample dropped: %+v", snap)
	}
	if want := bucketEdge(HistBuckets - 1); snap.P50US != want {
		t.Errorf("overflow p50 %d, want last edge %d", snap.P50US, want)
	}
}

// TestHistogramQuantileAccuracy pins the conservative-within-2×
// contract on a realistic spread: every reported quantile must be an
// upper bound on the true quantile and strictly within 2× of it.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 1000 samples: 1..1000 µs uniformly.
	for us := int64(1); us <= 1000; us++ {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	snap := h.Snapshot()
	check := func(name string, got, trueQ int64) {
		if got < trueQ {
			t.Errorf("%s = %d underestimates true quantile %d", name, got, trueQ)
		}
		if got >= 2*trueQ {
			t.Errorf("%s = %d not within 2x of true quantile %d", name, got, trueQ)
		}
	}
	check("p50", snap.P50US, 500)
	check("p95", snap.P95US, 950)
	check("p99", snap.P99US, 990)
	if snap.Count != 1000 || snap.SumUS != 500500 {
		t.Errorf("count/sum: %+v", snap)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run under -race in CI) and checks nothing is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	const writers, each = 8, 1000
	for w := 0; w < writers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	if got := h.Count(); got != writers*each {
		t.Errorf("count %d, want %d", got, writers*each)
	}
}

// TestQuantileEmpty pins the empty-histogram edge.
func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if snap := h.Snapshot(); snap.P50US != 0 || snap.P99US != 0 || snap.Count != 0 {
		t.Errorf("empty snapshot: %+v", snap)
	}
}

// TestRegistryHistograms pins named-histogram registration and the
// merged snapshot map.
func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("request_us")
	if r.Histogram("request_us") != h {
		t.Fatal("same name returned different histograms")
	}
	h.Observe(3 * time.Microsecond)
	snaps := r.Histograms()
	if got := snaps["request_us"]; got.Count != 1 || got.P50US != 4 {
		t.Errorf("histogram snapshot: %+v", got)
	}
}

package bench

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/route"
	"ladiff/internal/server"
	"ladiff/internal/store"
)

// RoutePerfScenario is one replay of the zipf diff workload through
// the routing tier against a fixed replica topology.
type RoutePerfScenario struct {
	// Name identifies the topology: replicas-1, replicas-4, or
	// replicas-4-kill (the 4-replica run with a mid-replay kill and
	// restart of the replica owning the hottest document).
	Name     string `json:"name"`
	Replicas int    `json:"replicas"`
	Killed   bool   `json:"killed"`

	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanUS        int64   `json:"mean_us"`
	P50US         int64   `json:"p50_us"`
	P99US         int64   `json:"p99_us"`

	// CacheHitRate aggregates the replicas' diff-cache counters over
	// the whole replay (kill scenarios sum across the victim's
	// incarnations, so restarting never hides misses).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// WindowHitRate is the hit rate over an extra measurement window
	// of zipf requests issued after the replay (and, in the kill
	// scenario, after the victim was re-admitted). Comparing this
	// window across the steady and kill runs isolates how much cache
	// locality the failover round-trip cost.
	WindowHitRate float64 `json:"window_hit_rate"`

	Failovers int64 `json:"failovers_total"`
	// RecoveryMS is how long the router took to re-admit the restarted
	// victim (restart begins → snapshot reports it alive). Zero for
	// scenarios without a kill.
	RecoveryMS int64 `json:"recovery_ms"`
}

// RoutePerfReport is the E16 routing experiment: the zipf-skewed diff
// workload of E13 replayed through the consistent-hash router against
// growing replica sets, with and without a mid-replay replica kill.
type RoutePerfReport struct {
	Benchmark  string  `json:"benchmark"`
	GoMaxProcs int     `json:"gomaxprocs"`
	DocPairs   int     `json:"doc_pairs"`
	Requests   int     `json:"requests"`
	Window     int     `json:"window_requests"`
	ZipfS      float64 `json:"zipf_s"`

	Scenarios []RoutePerfScenario `json:"scenarios"`

	// RetainedHitRatio is the kill scenario's post-recovery window hit
	// rate over the steady 4-replica scenario's. The routing claim is
	// that body-hash affinity re-converges after failover: the ratio
	// must stay within 10% of parity (>= 0.9).
	RetainedHitRatio float64 `json:"retained_hit_ratio"`
}

// routeBenchReplica is one restartable backend: a full document server
// on a fixed loopback address whose incarnations (fresh store + cold
// diff cache per restart, like a real failover target) are kept so the
// scenario can sum cache counters across the kill.
type routeBenchReplica struct {
	addr string
	hs   *http.Server
	st   *store.Store
	srvs []*server.Server
	done chan struct{}
	up   bool
}

func startRouteBenchReplica(cacheEntries int) (*routeBenchReplica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &routeBenchReplica{addr: ln.Addr().String()}
	r.serve(ln, cacheEntries)
	return r, nil
}

func (r *routeBenchReplica) url() string { return "http://" + r.addr }

func (r *routeBenchReplica) serve(ln net.Listener, cacheEntries int) {
	r.st = store.New(store.Config{})
	sv := server.New(server.Config{
		Store:            r.st,
		DiffCacheEntries: cacheEntries,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	r.srvs = append(r.srvs, sv)
	r.hs = &http.Server{Handler: sv.Handler()}
	r.done = make(chan struct{})
	r.up = true
	go func(hs *http.Server, done chan struct{}) {
		_ = hs.Serve(ln)
		close(done)
	}(r.hs, r.done)
}

func (r *routeBenchReplica) kill() {
	if !r.up {
		return
	}
	_ = r.hs.Close()
	<-r.done
	r.st.Close()
	r.up = false
}

// restart re-listens on the replica's original address (retrying
// briefly while the kernel releases the port) and serves a fresh
// incarnation.
func (r *routeBenchReplica) restart(cacheEntries int) error {
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("bench: routeperf restart %s: %w", r.addr, err)
	}
	r.serve(ln, cacheEntries)
	return nil
}

// cacheTotals sums hits and misses across every incarnation.
func (r *routeBenchReplica) cacheTotals() (hits, misses int64) {
	for _, sv := range r.srvs {
		c := sv.Metrics().Snapshot().Cache
		hits += c.Hits
		misses += c.Misses
	}
	return hits, misses
}

// CollectRoutePerf runs the E16 routing scenarios. Zero arguments take
// the defaults (16 pairs, 600 replay requests, 200 window requests);
// the experiment smoke test trims them.
func CollectRoutePerf(pairs, requests, window int) (*RoutePerfReport, error) {
	if pairs <= 0 {
		pairs = 16
	}
	if requests <= 0 {
		requests = 600
	}
	if window <= 0 {
		window = 200
	}
	report := &RoutePerfReport{
		Benchmark:  "routeperf",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DocPairs:   pairs,
		Requests:   requests,
		Window:     window,
		ZipfS:      zipfS,
	}

	// The E13 cache workload, extended by the measurement window, so
	// every scenario serves the identical stream.
	bodies, order, err := zipfWorkload(pairs, requests+window)
	if err != nil {
		return nil, err
	}

	for _, sc := range []struct {
		name     string
		replicas int
		kill     bool
	}{
		{"replicas-1", 1, false},
		{"replicas-4", 4, false},
		{"replicas-4-kill", 4, true},
	} {
		res, err := runRouteScenario(sc.name, sc.replicas, sc.kill, bodies, order[:requests], order[requests:])
		if err != nil {
			return nil, fmt.Errorf("bench: routeperf %s: %w", sc.name, err)
		}
		report.Scenarios = append(report.Scenarios, res)
	}

	var steady, killed *RoutePerfScenario
	for i := range report.Scenarios {
		switch report.Scenarios[i].Name {
		case "replicas-4":
			steady = &report.Scenarios[i]
		case "replicas-4-kill":
			killed = &report.Scenarios[i]
		}
	}
	if steady != nil && killed != nil && steady.WindowHitRate > 0 {
		report.RetainedHitRatio = killed.WindowHitRate / steady.WindowHitRate
	}
	return report, nil
}

func runRouteScenario(name string, replicas int, kill bool, bodies [][]byte, order, window []int) (RoutePerfScenario, error) {
	res := RoutePerfScenario{Name: name, Replicas: replicas, Killed: kill, Requests: len(order)}

	const cacheEntries = 64
	reps := make([]*routeBenchReplica, replicas)
	for i := range reps {
		r, err := startRouteBenchReplica(cacheEntries)
		if err != nil {
			return res, err
		}
		reps[i] = r
	}
	defer func() {
		for _, r := range reps {
			r.kill()
		}
	}()
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.url()
	}

	rt := route.New(route.Config{
		Replicas:        urls,
		ProbeInterval:   20 * time.Millisecond,
		Rise:            1,
		Fall:            2,
		Breaker:         2,
		BreakerCooldown: 150 * time.Millisecond,
		AttemptTimeout:  5 * time.Second,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	client := front.Client()

	// Warm up, and learn which replica the hottest body routes to —
	// that replica is the kill victim, so the kill provably disturbs
	// the hot end of the zipf distribution.
	status, victimURL, err := postDiff(client, front.URL, bodies[0])
	if err != nil || status != http.StatusOK {
		return res, fmt.Errorf("warmup: status %d, err %v", status, err)
	}
	var victim *routeBenchReplica
	for _, r := range reps {
		if r.url() == victimURL {
			victim = r
		}
	}
	if kill && victim == nil {
		return res, fmt.Errorf("warmup replica %q not in replica set", victimURL)
	}

	killAt, restartAt := len(order)/3, 2*len(order)/3
	latencies := make([]int64, 0, len(order))
	var busy time.Duration
	for i, idx := range order {
		if kill && i == killAt {
			victim.kill()
		}
		if kill && i == restartAt {
			t0 := time.Now()
			if err := victim.restart(cacheEntries); err != nil {
				return res, err
			}
			if err := waitAlive(rt, victimURL, 10*time.Second); err != nil {
				return res, err
			}
			res.RecoveryMS = time.Since(t0).Milliseconds()
		}
		t0 := time.Now()
		status, _, err := postDiff(client, front.URL, bodies[idx])
		d := time.Since(t0)
		busy += d
		latencies = append(latencies, d.Microseconds())
		if err != nil || status != http.StatusOK {
			res.Errors++
		}
	}

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	if n := int64(len(latencies)); n > 0 {
		var sum int64
		for _, l := range latencies {
			sum += l
		}
		res.MeanUS = sum / n
		res.P50US = latencyQuantile(latencies, 0.50)
		res.P99US = latencyQuantile(latencies, 0.99)
	}
	if busy > 0 {
		res.ThroughputRPS = float64(len(order)) / busy.Seconds()
	}

	// Whole-replay cache accounting, then the measurement window: the
	// delta in summed hit/miss counters over `window` further zipf
	// requests, identical across scenarios.
	h0, m0 := int64(0), int64(0)
	for _, r := range reps {
		h, m := r.cacheTotals()
		h0, m0 = h0+h, m0+m
	}
	if traffic := h0 + m0; traffic > 0 {
		res.CacheHitRate = float64(h0) / float64(traffic)
	}
	for _, idx := range window {
		if status, _, err := postDiff(client, front.URL, bodies[idx]); err != nil || status != http.StatusOK {
			res.Errors++
		}
	}
	h1, m1 := int64(0), int64(0)
	for _, r := range reps {
		h, m := r.cacheTotals()
		h1, m1 = h1+h, m1+m
	}
	if traffic := (h1 - h0) + (m1 - m0); traffic > 0 {
		res.WindowHitRate = float64(h1-h0) / float64(traffic)
	}

	res.Failovers = rt.Snapshot().Failovers
	return res, nil
}

// waitAlive polls the router's snapshot until url is admitted (healthy
// with a closed breaker).
func waitAlive(rt *route.Router, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, rs := range rt.Snapshot().Replicas {
			if rs.URL == url && rs.Alive {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("replica %s not re-admitted within %s", url, timeout)
}

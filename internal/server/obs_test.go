package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"ladiff/internal/fault"
	"ladiff/internal/obs"
	"ladiff/internal/testleak"
)

// obsServer is a leak-checked test server with the observability layer
// armed on a dedicated ring. The returned done closes the server and
// disarms obs before the leak sweep runs (defers run LIFO, so the
// leak check is registered first, like chaosServer).
func obsServer(t *testing.T, cfg Config, ring *obs.Ring) (*Server, *httptest.Server, func()) {
	t.Helper()
	if obs.Enabled() {
		t.Fatal("observability already armed")
	}
	leak := testleak.Check(t)
	deactivate := obs.Activate(obs.Config{Ring: ring})
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		deactivate()
		leak()
	}
}

// TestChaosTraceRingStorm hammers an armed server with 200 concurrent
// requests against an 8-slot ring — far more offers than slots, so
// eviction races constantly. Run under -race in CI. It pins:
// exactly-once retention accounting (offered == requests ==
// kept+dropped, kept−evicted == slots in use), no torn traces (every
// retained trace is whole: id, name, duration, finished root with an
// http_status attribute), and the request-id header on every response.
func TestChaosTraceRingStorm(t *testing.T) {
	ring := obs.NewRing(8)
	_, ts, done := obsServer(t, Config{}, ring)
	defer done()

	const workers, perWorker = 8, 25
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := make(map[string]bool)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/diff", "application/json",
					bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				id := resp.Header.Get("X-Request-Id")
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
				if id == "" {
					t.Error("response missing X-Request-Id while armed")
					continue
				}
				mu.Lock()
				ids[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	if len(ids) != total {
		t.Errorf("%d distinct request ids, want %d", len(ids), total)
	}
	st := ring.Stats()
	if st.Offered != total {
		t.Errorf("offered %d, want %d (every request traced exactly once)", st.Offered, total)
	}
	if st.Offered != st.Kept+st.Dropped {
		t.Errorf("accounting broken: offered %d != kept %d + dropped %d",
			st.Offered, st.Kept, st.Dropped)
	}
	retained := ring.Traces()
	if st.Kept-st.Evicted != int64(len(retained)) {
		t.Errorf("kept-evicted %d != %d slots in use", st.Kept-st.Evicted, len(retained))
	}
	if len(retained) == 0 || len(retained) > ring.Capacity() {
		t.Fatalf("retained %d traces with capacity %d", len(retained), ring.Capacity())
	}
	for _, tr := range retained {
		if tr.ID == "" || tr.Name != "POST /v1/diff" || tr.Duration <= 0 || tr.Root == nil {
			t.Errorf("torn trace: %+v", tr)
			continue
		}
		if !ids[tr.ID] {
			t.Errorf("retained trace id %q was never returned to a client", tr.ID)
		}
		snap := tr.Snapshot()
		found := false
		for _, a := range snap.Root.Attrs {
			if a.Key == "http_status" {
				found = true
			}
		}
		if !found {
			t.Errorf("trace %s root has no http_status attribute: %+v", tr.ID, snap.Root.Attrs)
		}
	}
}

// TestTraceTimeoutRetained pins the failure path end to end under the
// leak check: a request that dies on its deadline must produce a 504
// whose trace is errored "http 504" and retained ahead of successful
// ones, with no goroutine left behind.
func TestTraceTimeoutRetained(t *testing.T) {
	ring := obs.NewRing(4)
	_, ts, done := obsServer(t, Config{}, ring)
	defer done()

	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.Match, Mode: fault.ModeDelay, Delay: 50 * time.Millisecond},
	}})
	defer deactivate()

	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1],
		Format: "text", TimeoutMs: 1}
	status, _, hdr := postJSON(t, ts, "/v1/diff", req)
	deactivate()
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("504 response missing X-Request-Id")
	}

	// A fast successful request afterwards must rank below the error.
	ok := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	if status, _, _ := postJSON(t, ts, "/v1/diff", ok); status != http.StatusOK {
		t.Fatalf("follow-up status %d", status)
	}

	waitFor(t, "both traces retained", func() bool {
		return ring.Stats().Kept >= 2
	})
	retained := ring.Traces()
	if retained[0].Err != "http 504" {
		t.Errorf("top trace error %q, want \"http 504\"", retained[0].Err)
	}
}

// TestDebugTracesEndpoint pins GET /debug/traces: an empty document
// when nothing is armed, and the full ring document — capacity, stats,
// traces with the pinned schema — when armed.
func TestDebugTracesEndpoint(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("observability already armed")
	}
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	get := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(dbg.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content-type %q", ct)
		}
		var doc map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	// Disabled: empty document, not an error.
	doc := get()
	if string(doc["capacity"]) != "0" || string(doc["traces"]) != "[]" {
		t.Errorf("disabled document: capacity=%s traces=%s", doc["capacity"], doc["traces"])
	}

	// Armed with one retained errored trace.
	ring := obs.NewRing(4)
	defer obs.Activate(obs.Config{Ring: ring})()
	tr := &obs.Trace{ID: "req-1", Name: "POST /v1/diff", Start: time.Now(),
		Duration: 3 * time.Millisecond, Err: "http 500"}
	ring.Offer(tr)

	doc = get()
	if string(doc["capacity"]) != "4" {
		t.Errorf("capacity %s, want 4", doc["capacity"])
	}
	keys := func(m map[string]json.RawMessage) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(doc["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if got := keys(stats); len(got) != 4 || got[0] != "dropped" || got[1] != "evicted" ||
		got[2] != "kept" || got[3] != "offered" {
		t.Errorf("stats keys %v", got)
	}
	var traces []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traces"], &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	got := keys(traces[0])
	want := []string{"duration_us", "error", "id", "name", "root", "start_unix_us"}
	if len(got) != len(want) {
		t.Fatalf("trace keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace keys %v, want %v", got, want)
		}
	}
}

// TestRequestIDPropagation pins the correlation contract: a caller's
// X-Request-Id is echoed back and becomes the trace id, so client
// retries carrying one id correlate across server traces.
func TestRequestIDPropagation(t *testing.T) {
	ring := obs.NewRing(4)
	_, ts, done := obsServer(t, Config{}, ring)
	defer done()

	data, _ := json.Marshal(DiffRequest{
		Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/diff", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", "caller-chosen-7")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chosen-7" {
		t.Errorf("echoed id %q, want caller-chosen-7", got)
	}
	waitFor(t, "trace retained", func() bool { return ring.Stats().Kept == 1 })
	if id := ring.Traces()[0].ID; id != "caller-chosen-7" {
		t.Errorf("trace id %q, want caller-chosen-7", id)
	}
}

// TestTraceSpansCoverPhases pins that a served diff's trace actually
// contains the engine phase spans — parse through serialize — so the
// middleware context threading reaches the engine.
func TestTraceSpansCoverPhases(t *testing.T) {
	ring := obs.NewRing(4)
	_, ts, done := obsServer(t, Config{}, ring)
	defer done()

	req := DiffRequest{Old: diffPairs["latex"][0], New: diffPairs["latex"][1],
		Format: "latex", Output: "marked"}
	if status, body, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	waitFor(t, "trace retained", func() bool { return ring.Stats().Kept == 1 })

	snap := ring.Traces()[0].Snapshot()
	seen := map[string]bool{}
	for _, sp := range snap.Root.Spans {
		seen[sp.Name] = true
	}
	for _, phase := range []string{"parse", "match", "generate", "serialize"} {
		if !seen[phase] {
			t.Errorf("trace missing %q span; got %v", phase, seen)
		}
	}
}

// TestMetricsEngineSection pins the merged registry in GET /metrics:
// the engine section is always present, and while armed the buffer-pool
// gauges move with request traffic.
func TestMetricsEngineSection(t *testing.T) {
	ring := obs.NewRing(4)
	s, ts, done := obsServer(t, Config{}, ring)
	defer done()

	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	if status, _, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Fatal("diff failed")
	}

	var snap MetricsSnapshot
	if status := getJSON(t, ts, "/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if snap.Engine == nil {
		t.Fatal("metrics snapshot has no engine section")
	}
	for _, name := range []string{
		"engine_match_fallbacks_total",
		"engine_gen_index_fallbacks_total",
		"server_pool_gets_total",
		"server_pool_allocs_total",
		"server_pool_recycles_total",
	} {
		if _, ok := snap.Engine[name]; !ok {
			t.Errorf("engine section missing %q: %v", name, snap.Engine)
		}
	}
	if snap.Engine["server_pool_gets_total"] < 1 {
		t.Errorf("pool gets %d after an armed request, want >= 1",
			snap.Engine["server_pool_gets_total"])
	}
	if rec := snap.Engine["server_pool_recycles_total"]; rec != snap.Engine["server_pool_gets_total"]-snap.Engine["server_pool_allocs_total"] {
		t.Errorf("recycles %d != gets %d - allocs %d", rec,
			snap.Engine["server_pool_gets_total"], snap.Engine["server_pool_allocs_total"])
	}
	_ = s
}

// TestObserveDisabledPassThrough pins the disabled middleware: no
// request-id header is invented and no trace is built.
func TestObserveDisabledPassThrough(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("observability already armed")
	}
	_, ts := newTestServer(t, Config{})
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	status, _, hdr := postJSON(t, ts, "/v1/diff", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := hdr.Get("X-Request-Id"); got != "" {
		t.Errorf("disabled server invented request id %q", got)
	}
}

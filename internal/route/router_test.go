package route

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/testleak"
)

// newReplicaServer boots one real replica: a full server over a fresh
// in-memory store.
func newReplicaServer(t *testing.T) (*store.Store, *httptest.Server) {
	t.Helper()
	st := store.New(store.Config{})
	t.Cleanup(func() { st.Close() })
	s := server.New(server.Config{
		Store:  st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return st, ts
}

// newTestRouter builds a Router with fast probes and registers its
// shutdown.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rt := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// keyOwnedBy finds a document key whose ring owner is the given
// replica URL.
func keyOwnedBy(t *testing.T, ring *Ring, owner, hint string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%s-%d", hint, i)
		if ring.Owner("doc:"+k) == owner {
			return k
		}
	}
	t.Fatalf("no key found owned by %s", owner)
	return ""
}

func putDoc(t *testing.T, base, key, content string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"format": "text", "content": content})
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/docs/"+key, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", key, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// diffBodyOwnedBy builds a valid POST /v1/diff body whose hash routes
// to owner.
func diffBodyOwnedBy(t *testing.T, ring *Ring, owner string) []byte {
	t.Helper()
	req := &http.Request{Method: http.MethodPost, URL: mustURL("/v1/diff")}
	for i := 0; i < 10000; i++ {
		body, _ := json.Marshal(map[string]string{
			"format": "text",
			"old":    fmt.Sprintf("The first sentence is here. Counter reads %d.", i),
			"new":    fmt.Sprintf("The first sentence is here. Counter reads %d now.", i),
		})
		if ring.Owner(shardKey(req, body)) == owner {
			return body
		}
	}
	t.Fatalf("no diff body found owned by %s", owner)
	return nil
}

// errorCode extracts the code from an API error envelope.
func errorCode(data []byte) string {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.Unmarshal(data, &env)
	return env.Error.Code
}

// TestRouterShardsByKey: documents land on their ring owner, reads
// come back from the same replica that took the write, and the router
// stamps which replica answered.
func TestRouterShardsByKey(t *testing.T) {
	var replicas []string
	for i := 0; i < 3; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	seen := map[string]string{} // key -> replica that served the PUT
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("doc-%d", i)
		resp, data := putDoc(t, router.URL, key, fmt.Sprintf("Content number %d stays here.", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s: status %d: %s", key, resp.StatusCode, data)
		}
		rep := resp.Header.Get("X-Route-Replica")
		if want := rt.ring.Owner("doc:" + key); rep != want {
			t.Errorf("PUT %s served by %s, ring owner %s", key, rep, want)
		}
		seen[key] = rep
	}
	for key, wrote := range seen {
		resp, err := http.Get(router.URL + "/v1/docs/" + key + "/versions")
		if err != nil {
			t.Fatalf("GET versions %s: %v", key, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET versions %s: status %d", key, resp.StatusCode)
		}
		if read := resp.Header.Get("X-Route-Replica"); read != wrote {
			t.Errorf("key %s: written via %s but read from %s", key, wrote, read)
		}
	}

	snap := rt.Snapshot()
	if snap.Requests != snap.Relayed+snap.NoReplica+snap.Failed+snap.RejectedDraining {
		t.Errorf("accounting broken: %+v", snap)
	}
	if snap.Failovers != 0 {
		t.Errorf("failovers = %d on a healthy cluster", snap.Failovers)
	}
}

// TestRouterStatelessDiffAffinity: the same diff body always routes to
// the same replica (that replica's diff cache stays hot for it).
func TestRouterStatelessDiffAffinity(t *testing.T) {
	var replicas []string
	for i := 0; i < 3; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	body, _ := json.Marshal(map[string]string{
		"old":    "The first sentence is here. Another sentence follows it.",
		"new":    "The first sentence is here. Another sentence replaces it.",
		"format": "text",
	})
	var first string
	for i := 0; i < 4; i++ {
		resp, err := http.Post(router.URL+"/v1/diff", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diff: status %d", resp.StatusCode)
		}
		rep := resp.Header.Get("X-Route-Replica")
		if first == "" {
			first = rep
		} else if rep != first {
			t.Fatalf("identical diff bodies routed to %s then %s", first, rep)
		}
	}
}

// TestRouterFailover: with a key's owner dead, a stateless diff lands
// on the ring successor — deterministically, with one failover counted
// — while a document PUT for a key that owner holds is refused with an
// explicit 502 and never reaches the successor.
func TestRouterFailover(t *testing.T) {
	stores := make([]*store.Store, 2)
	var replicas []string
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		st, ts := newReplicaServer(t)
		stores[i] = st
		servers = append(servers, ts)
		replicas = append(replicas, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: replicas, ProbeInterval: time.Hour}) // probes effectively off: breaker-path only
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	diffBody := diffBodyOwnedBy(t, rt.ring, servers[0].URL)
	key := keyOwnedBy(t, rt.ring, servers[0].URL, "fall")
	servers[0].Close() // kill the owner

	resp, data := postJSON(t, http.MethodPost, router.URL+"/v1/diff", json.RawMessage(diffBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff with owner down: status %d: %s", resp.StatusCode, data)
	}
	if rep := resp.Header.Get("X-Route-Replica"); rep != servers[1].URL {
		t.Errorf("failover served by %s, want successor %s", rep, servers[1].URL)
	}

	resp, data = putDoc(t, router.URL, key, "Never lands on the successor.")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("PUT with owner down: status %d, want 502: %s", resp.StatusCode, data)
	}
	if keys := stores[1].Keys(); len(keys) != 0 {
		t.Errorf("successor holds %v: a document write failed over", keys)
	}
	snap := rt.Snapshot()
	if snap.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", snap.Failovers)
	}
	if snap.Relayed != 1 || snap.Failed != 1 {
		t.Errorf("relayed=%d failed=%d, want 1/1: %+v", snap.Relayed, snap.Failed, snap)
	}
}

// TestRouterNonIdempotentNoFailover: an unrecognized POST is not
// replayed on another replica — the owner's transient failure is
// relayed as-is and the successor never sees the request.
func TestRouterNonIdempotentNoFailover(t *testing.T) {
	var aHits, bHits atomic.Int64
	mk := func(hits *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			hits.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
	}
	a, b := mk(&aHits), mk(&bHits)
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.URL, b.URL}, ProbeInterval: time.Hour})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// Find a body whose hash routes to replica A.
	var body []byte
	for i := 0; ; i++ {
		body = []byte(fmt.Sprintf(`{"op":%d}`, i))
		if rt.ring.Owner(shardKey(&http.Request{Method: "POST", URL: mustURL("/v1/custom")}, body)) == a.URL {
			break
		}
	}
	resp, err := http.Post(router.URL+"/v1/custom", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the owner's 503 relayed", resp.StatusCode)
	}
	if aHits.Load() != 1 || bHits.Load() != 0 {
		t.Errorf("hits a=%d b=%d, want 1/0 (no cross-replica replay of non-idempotent work)", aHits.Load(), bHits.Load())
	}
	if snap := rt.Snapshot(); snap.Failovers != 0 {
		t.Errorf("failovers = %d, want 0", snap.Failovers)
	}
}

// TestRouter429PassThrough: replica back-pressure is the caller's
// signal, not the router's cue to spray the ring — 429 and its
// Retry-After pass through untouched, with no failover and no breaker
// penalty.
func TestRouter429PassThrough(t *testing.T) {
	var aHits, bHits atomic.Int64
	mk := func(hits *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			hits.Add(1)
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":{"code":"over_capacity","message":"shedding"}}`)
		}))
	}
	a, b := mk(&aHits), mk(&bHits)
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.URL, b.URL}, ProbeInterval: time.Hour})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	key := keyOwnedBy(t, rt.ring, a.URL, "hot")
	resp, err := http.Get(router.URL + "/v1/docs/" + key + "/versions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passed through", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7 (back-pressure hint preserved)", got)
	}
	if aHits.Load() != 1 || bHits.Load() != 0 {
		t.Errorf("hits a=%d b=%d, want 1/0 (429 must not fail over)", aHits.Load(), bHits.Load())
	}
	for _, rep := range rt.Snapshot().Replicas {
		if rep.Failures != 0 {
			t.Errorf("replica %s charged %d failures for back-pressure", rep.URL, rep.Failures)
		}
	}
}

// TestRouterFeedProxy: an SSE feed streams through the router — the
// snapshot arrives, and a change committed after subscription reaches
// the subscriber through the proxy without buffering it to death.
func TestRouterFeedProxy(t *testing.T) {
	_, ts := newReplicaServer(t)
	rt := newTestRouter(t, Config{Replicas: []string{ts.URL}})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	key := "watched"
	if resp, data := putDoc(t, router.URL, key, "The opening content sits here."); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed PUT: %d: %s", resp.StatusCode, data)
	}

	c := client.New(client.Config{BaseURL: router.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sawSnapshot := make(chan struct{})
	done := make(chan error, 1)
	var events []client.FeedEvent
	go func() {
		done <- c.WatchFeed(ctx, key, client.FeedOptions{}, func(ev client.FeedEvent) error {
			events = append(events, ev)
			if ev.Type == store.EventSnapshot && len(events) == 1 {
				close(sawSnapshot)
			}
			if ev.Type == store.EventChange {
				return io.EOF // stop marker
			}
			return nil
		})
	}()
	select {
	case <-sawSnapshot:
	case err := <-done:
		t.Fatalf("watch ended before snapshot: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no snapshot through the router within 5s")
	}
	if resp, data := putDoc(t, router.URL, key, "The revised content sits here."); resp.StatusCode != http.StatusOK {
		t.Fatalf("update PUT: %d: %s", resp.StatusCode, data)
	}
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("watch returned %v, want the handler's stop marker", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("change event never crossed the router")
	}
	last := events[len(events)-1]
	if last.Type != store.EventChange || last.Version != 2 {
		t.Errorf("last event = %s v%d, want change v2", last.Type, last.Version)
	}
}

// TestRouterProbeEjectionAndReadmission: a replica failing /readyz is
// ejected after Fall probes and re-admitted (with its breaker cleared)
// after Rise passing probes. Stateless traffic follows the ejection;
// a document key the ejected replica owns is refused until it returns.
func TestRouterProbeEjectionAndReadmission(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	defer flappy.Close()
	_, steady := newReplicaServer(t)

	rt := newTestRouter(t, Config{
		Replicas:      []string{flappy.URL, steady.URL},
		ProbeInterval: 10 * time.Millisecond,
		Rise:          2, Fall: 2,
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	rep := rt.reps[flappy.URL]
	waitFor(t, "initial health", func() bool { return rep.Alive() })

	ready.Store(false)
	waitFor(t, "ejection after failing probes", func() bool { return !rep.Healthy() })

	// While ejected, a diff the flappy replica owns lands on the steady
	// one, and a document key it owns gets 503: no other replica holds
	// that document.
	resp, _ := postJSON(t, http.MethodPost, router.URL+"/v1/diff",
		json.RawMessage(diffBodyOwnedBy(t, rt.ring, flappy.URL)))
	if got := resp.Header.Get("X-Route-Replica"); got != steady.URL {
		t.Errorf("diff during ejection served by %s, want %s", got, steady.URL)
	}
	key := keyOwnedBy(t, rt.ring, flappy.URL, "eject")
	resp, data := postJSON(t, http.MethodGet, router.URL+"/v1/docs/"+key+"/versions", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(data) != "owner_unavailable" {
		t.Errorf("document read during ejection: status %d %s, want 503 owner_unavailable", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}

	ready.Store(true)
	waitFor(t, "re-admission after passing probes", func() bool { return rep.Alive() })
	if rep.breaker.Open() {
		t.Error("breaker still open after probe-driven re-admission")
	}
	resp, _ = postJSON(t, http.MethodGet, router.URL+"/v1/docs/"+key+"/versions", nil)
	if got := resp.Header.Get("X-Route-Replica"); got != flappy.URL {
		t.Errorf("document read after re-admission served by %q, want owner %s", got, flappy.URL)
	}
}

// TestRouterDrainAndAccounting: drain flips the router's own /readyz,
// refuses new work with the draining envelope, and the exactly-once
// request accounting stays balanced through it — then Shutdown leaves
// no goroutine behind (probers, proxies, waiters).
func TestRouterDrainAndAccounting(t *testing.T) {
	// Registered first so its sweep runs after every defer below has
	// torn the stack down (t.Cleanup would run too late).
	defer testleak.Check(t)()
	st := store.New(store.Config{})
	defer st.Close()
	sv := server.New(server.Config{Store: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	cfg := Config{
		Replicas:      []string{ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	rt := New(cfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	if resp, data := putDoc(t, router.URL, "d", "Something to route first."); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d: %s", resp.StatusCode, data)
	}
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)

	rt.BeginDrain()
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)

	resp, data := putDoc(t, router.URL, "d2", "Refused during drain.")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("PUT during drain: status %d, want 503: %s", resp.StatusCode, data)
	}

	snap := rt.Snapshot()
	if snap.RejectedDraining != 1 {
		t.Errorf("rejected_draining = %d, want 1", snap.RejectedDraining)
	}
	if snap.Requests != snap.Relayed+snap.NoReplica+snap.Failed+snap.RejectedDraining {
		t.Errorf("accounting broken: %+v", snap)
	}
}

// TestRouterShutdownSeversFeed: Shutdown cuts a proxied feed stream
// loose instead of waiting it out — it returns nil well inside its
// deadline, the subscriber's stream ends, and no goroutine is left
// behind.
func TestRouterShutdownSeversFeed(t *testing.T) {
	defer testleak.Check(t)()
	st := store.New(store.Config{})
	defer st.Close()
	sv := server.New(server.Config{Store: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	rt := New(Config{
		Replicas:      []string{ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	if resp, data := putDoc(t, router.URL, "fed", "The watched content sits here."); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed PUT: %d: %s", resp.StatusCode, data)
	}
	resp, err := http.Get(router.URL + "/v1/docs/fed/feed")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "data:") {
	}
	if !strings.HasPrefix(sc.Text(), "data:") {
		t.Fatalf("feed ended before its snapshot: %v", sc.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open feed: %v", err)
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for sc.Scan() {
		}
	}()
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber's stream still open after Shutdown")
	}
}

// TestRouterDocList: GET /v1/docs merges the replicas' listings in key
// order, keeps each key only from its ring owner (a stray copy written
// straight to another replica is not listed), and fails closed with
// 503 owner_unavailable while any replica cannot answer.
func TestRouterDocList(t *testing.T) {
	var replicas []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
		servers = append(servers, ts)
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	want := map[string]string{} // key -> fingerprint its owner acknowledged
	for i, u := range replicas {
		for _, hint := range []string{"list-a", "list-b"} {
			key := keyOwnedBy(t, rt.ring, u, fmt.Sprintf("%s%d", hint, i))
			resp, data := putDoc(t, router.URL, key, "Listed content for "+key+".")
			var ack server.DocPutResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ack) != nil {
				t.Fatalf("PUT %s: %d: %s", key, resp.StatusCode, data)
			}
			want[key] = ack.Fingerprint
		}
	}
	// Stray copies on a non-owner: a divergent copy of a listed key, and
	// a key the router never routed.
	listed := keyOwnedBy(t, rt.ring, replicas[0], "list-a0")
	stray := keyOwnedBy(t, rt.ring, replicas[0], "stray")
	for _, key := range []string{listed, stray} {
		if resp, data := putDoc(t, replicas[1], key, "A stray copy that diverges."); resp.StatusCode != http.StatusOK {
			t.Fatalf("direct PUT %s: %d: %s", key, resp.StatusCode, data)
		}
	}

	resp, data := postJSON(t, http.MethodGet, router.URL+"/v1/docs", nil)
	var list server.DocListResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &list) != nil {
		t.Fatalf("listing: %d: %s", resp.StatusCode, data)
	}
	if len(list.Docs) != len(want) {
		t.Fatalf("listing has %d docs, want %d: %s", len(list.Docs), len(want), data)
	}
	for i, d := range list.Docs {
		if i > 0 && list.Docs[i-1].Key >= d.Key {
			t.Errorf("listing out of key order at %d: %q after %q", i, d.Key, list.Docs[i-1].Key)
		}
		if fp, ok := want[d.Key]; !ok || d.Latest.Fingerprint != fp {
			t.Errorf("listed %s fingerprint %s, want the owner's %q", d.Key, d.Latest.Fingerprint, fp)
		}
	}

	// One replica down: no partial listing, whether the replica fails
	// the attempt or has already been ejected.
	servers[2].Close()
	for _, phase := range []string{"unreachable", "ejected"} {
		if phase == "ejected" {
			waitFor(t, "ejection", func() bool { return !rt.reps[replicas[2]].Healthy() })
		}
		resp, data := postJSON(t, http.MethodGet, router.URL+"/v1/docs", nil)
		if resp.StatusCode != http.StatusServiceUnavailable || errorCode(data) != "owner_unavailable" {
			t.Errorf("%s replica: listing status %d %s, want 503 owner_unavailable", phase, resp.StatusCode, data)
		}
	}
	snap := rt.Snapshot()
	if snap.Requests != snap.Relayed+snap.NoReplica+snap.Failed+snap.RejectedDraining {
		t.Errorf("accounting broken: %+v", snap)
	}
}

// TestRouterNoReplicas: when the breaker has ejected the only replica,
// the router answers 503 owner_unavailable itself instead of hammering
// a dead backend — and the accounting still sums.
func TestRouterNoReplicas(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // nothing is listening
	rt := newTestRouter(t, Config{
		Replicas:       []string{dead.URL},
		ProbeInterval:  time.Hour,
		Breaker:        1,
		AttemptTimeout: time.Second,
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	resp1, _ := http.Get(router.URL + "/v1/docs/k/versions")
	io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusBadGateway {
		t.Fatalf("first request: status %d, want 502 after transport failure", resp1.StatusCode)
	}
	resp2, data := postJSON(t, http.MethodGet, router.URL+"/v1/docs/k/versions", nil)
	if resp2.StatusCode != http.StatusServiceUnavailable || errorCode(data) != "owner_unavailable" {
		t.Fatalf("second request: status %d %s, want 503 owner_unavailable (breaker open)", resp2.StatusCode, data)
	}
	snap := rt.Snapshot()
	if snap.Failed != 1 || snap.NoReplica != 1 || snap.Relayed != 0 {
		t.Errorf("failed=%d noReplica=%d relayed=%d, want 1/1/0", snap.Failed, snap.NoReplica, snap.Relayed)
	}
	if snap.Requests != snap.Relayed+snap.NoReplica+snap.Failed+snap.RejectedDraining {
		t.Errorf("accounting broken: %+v", snap)
	}
}

func mustURL(path string) *url.URL { return &url.URL{Path: path} }

// unreadBody reports a read of a body that declared itself empty.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("a body that declared 0 bytes was read")
	return 0, io.EOF
}

// TestReadBody: a declared length within the limit is read into one
// buffer of exactly that size and a declared 0 is not read at all; an
// unknown length is read whole; a body past the limit comes back one
// byte over it, declared or not, and the router answers it 413 as
// before.
func TestReadBody(t *testing.T) {
	const limit = 64
	req := func(body io.Reader, declared int64) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/diff", body)
		r.ContentLength = declared
		return r
	}
	text := strings.Repeat("x", 40)
	if got, err := readBody(req(strings.NewReader(text), 40), limit); err != nil || string(got) != text || cap(got) != 40 {
		t.Errorf("declared 40: %q (cap %d), %v; want the body in a 40-byte buffer", got, cap(got), err)
	}
	if got, err := readBody(req(unreadBody{t}, 0), limit); err != nil || len(got) != 0 {
		t.Errorf("declared 0: %q, %v; want nothing", got, err)
	}
	if got, err := readBody(req(strings.NewReader(text), -1), limit); err != nil || string(got) != text {
		t.Errorf("unknown length: %q, %v; want the body", got, err)
	}
	big := strings.Repeat("y", 100)
	for _, declared := range []int64{100, -1} {
		if got, err := readBody(req(strings.NewReader(big), declared), limit); err != nil || len(got) != limit+1 {
			t.Errorf("declared %d past the limit: %d bytes, %v; want %d", declared, len(got), err, limit+1)
		}
	}
	if _, err := readBody(req(strings.NewReader("short"), 40), limit); err == nil {
		t.Error("a body shorter than its declared length read without error")
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt := newTestRouter(t, Config{Replicas: []string{dead.URL}, ProbeInterval: time.Hour, MaxBodyBytes: limit})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	resp, err := http.Post(router.URL+"/v1/diff", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errorCode(data) != "too_large" {
		t.Errorf("oversize body: status %d %s, want 413 too_large", resp.StatusCode, data)
	}
}

// TestRouterRefusesInvalidUTF8: through the router, every JSON route
// answers a body holding the lone byte 0xCE with the replica's 400
// bad_request, counted once in the replicas' bad_requests_total. A
// batch is not split: the router would decode it with U+FFFD in place
// of the byte, so it goes whole to one replica, which refuses it.
func TestRouterRefusesInvalidUTF8(t *testing.T) {
	var replicas []*server.Server
	var urls []string
	for i := 0; i < 2; i++ {
		st := store.New(store.Config{})
		t.Cleanup(func() { st.Close() })
		s := server.New(server.Config{Store: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		replicas, urls = append(replicas, s), append(urls, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: urls})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	badRequests := func() (n int64) {
		for _, s := range replicas {
			n += s.Metrics().BadRequests.Load()
		}
		return n
	}
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/diff", `{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}`},
		{"POST", "/v1/diff/batch", `{"items":[{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}]}`},
		{"POST", "/v1/patch", `{"base":"Alpha ~ beta.","format":"text"}`},
		{"POST", "/v1/jobs/diff", `{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}`},
		{"PUT", "/v1/docs/k", `{"format":"text","content":"Alpha ~ beta."}`},
	} {
		before := badRequests()
		req, _ := http.NewRequest(c.method, router.URL+c.path, strings.NewReader(strings.Replace(c.body, "~", "\xce", 1)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || errorCode(data) != "bad_request" {
			t.Errorf("%s %s: %d %s, want 400 bad_request", c.method, c.path, resp.StatusCode, data)
		}
		if n := badRequests() - before; n != 1 {
			t.Errorf("%s %s: bad_requests_total moved by %d, want 1", c.method, c.path, n)
		}
	}
}

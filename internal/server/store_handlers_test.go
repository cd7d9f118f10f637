package server

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
	"strings"
	"sync"
	"testing"
	"time"

	"ladiff/internal/store"
	"ladiff/internal/testleak"
	"ladiff/internal/tree"
)

// newStoreServer builds a test server with an in-memory document store
// mounted.
func newStoreServer(t *testing.T, scfg store.Config, cfg Config) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st := store.New(scfg)
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	s, ts := newTestServer(t, cfg)
	return s, ts, st
}

// putDoc PUTs content as the next version of key.
func putDoc(t *testing.T, ts *httptest.Server, key string, req DocPutRequest) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/docs/"+key, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// docVersions keeps most sentences stable between versions so the
// matcher holds the chain together: a document where nearly everything
// changes at once legitimately rebases (see TestRebase in the store
// package), which is not what this lifecycle test is about.
var docVersions = []string{
	"First sentence here. Second sentence here. Third sentence anchors the paragraph.",
	"First sentence here. Second sentence here today. Third sentence anchors the paragraph.",
	"First sentence here. Second sentence here today. Third sentence anchors the paragraph.\n\nA whole new paragraph appears.",
}

// TestDocLifecycle walks the full HTTP surface: ingest, noop ingest,
// list, version chain, checkout, and both diff modes in every output.
func TestDocLifecycle(t *testing.T) {
	_, ts, _ := newStoreServer(t, store.Config{}, Config{})

	for i, src := range docVersions {
		status, body := putDoc(t, ts, "notes", DocPutRequest{Format: "text", Content: src})
		if status != http.StatusOK {
			t.Fatalf("put v%d: %d: %s", i+1, status, body)
		}
		var resp DocPutResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Version != i+1 || resp.Noop || resp.Fingerprint == "" {
			t.Fatalf("put v%d: %+v", i+1, resp)
		}
	}
	// Idempotent re-put of the head content.
	status, body := putDoc(t, ts, "notes", DocPutRequest{Format: "text", Content: docVersions[2]})
	var noop DocPutResponse
	if err := json.Unmarshal(body, &noop); err != nil || status != http.StatusOK {
		t.Fatalf("noop put: %d %v", status, err)
	}
	if !noop.Noop || noop.Version != 3 {
		t.Fatalf("noop put: %+v", noop)
	}

	var list DocListResponse
	if status := getJSON(t, ts, "/v1/docs", &list); status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	if len(list.Docs) != 1 || list.Docs[0].Key != "notes" || list.Docs[0].Latest.Version != 3 {
		t.Fatalf("list: %+v", list)
	}

	var vers DocVersionsResponse
	if status := getJSON(t, ts, "/v1/docs/notes/versions", &vers); status != http.StatusOK {
		t.Fatalf("versions: %d", status)
	}
	if len(vers.Versions) != 3 || vers.Format != "text" {
		t.Fatalf("versions: %+v", vers)
	}

	for v := 1; v <= 3; v++ {
		var co DocCheckoutResponse
		if status := getJSON(t, ts, fmt.Sprintf("/v1/docs/notes/versions/%d", v), &co); status != http.StatusOK {
			t.Fatalf("checkout v%d: %d", v, status)
		}
		if co.Version != v || co.Fingerprint != vers.Versions[v-1].Fingerprint || co.Document == "" {
			t.Fatalf("checkout v%d: %+v", v, co)
		}
		// The rendered document must parse back to the recorded shape.
		parsed, err := store.ParseDoc("text", co.Document, tree.Limits{})
		if err != nil {
			t.Fatalf("checkout v%d render does not re-parse: %v", v, err)
		}
		if got := parsed.Fingerprints().Root().String(); got != co.Fingerprint {
			t.Fatalf("checkout v%d: render/parse round trip drifted: %s vs %s", v, got, co.Fingerprint)
		}
	}

	// Diff: auto mode composes when a chain exists.
	var diff DocDiffResponse
	if status := getJSON(t, ts, "/v1/docs/notes/diff?from=1&to=3", &diff); status != http.StatusOK {
		t.Fatalf("diff: %d", status)
	}
	if diff.Mode != "compose" || len(diff.Script) == 0 || diff.Ops != len(diff.Script) {
		t.Fatalf("diff auto: %+v", diff)
	}
	// Explicit rediff produces a minimized script.
	if status := getJSON(t, ts, "/v1/docs/notes/diff?from=1&to=3&mode=rediff", &diff); status != http.StatusOK {
		t.Fatalf("rediff: %d", status)
	}
	if diff.Mode != "rediff" || len(diff.Script) == 0 {
		t.Fatalf("diff rediff: %+v", diff)
	}
	// Delta and marked outputs.
	if status := getJSON(t, ts, "/v1/docs/notes/diff?from=1&to=3&output=delta", &diff); status != http.StatusOK {
		t.Fatalf("delta: %d", status)
	}
	if len(diff.Delta) == 0 || diff.Mode != "rediff" {
		t.Fatalf("diff delta: %+v", diff)
	}
	if status := getJSON(t, ts, "/v1/docs/notes/diff?from=1&to=3&output=marked", &diff); status != http.StatusOK {
		t.Fatalf("marked: %d", status)
	}
	if diff.Document == "" {
		t.Fatalf("diff marked: %+v", diff)
	}
	// Backward diff (inverse chain).
	if status := getJSON(t, ts, "/v1/docs/notes/diff?from=3&to=1", &diff); status != http.StatusOK {
		t.Fatalf("backward diff: %d", status)
	}
	if diff.Mode != "compose" || len(diff.Script) == 0 {
		t.Fatalf("backward diff: %+v", diff)
	}
}

// TestDocErrors pins the HTTP error taxonomy of every store endpoint,
// and of the job routes' unknown id: each failure's status, its error
// code, and the one counter it moves.
func TestDocErrors(t *testing.T) {
	s, ts, _ := newStoreServer(t, store.Config{Limits: tree.Limits{MaxNodes: 12}}, Config{})
	const bad, size = "bad_requests_total", "rejected_size_total"
	type errCase struct {
		name, method, path string
		body               any
		status             int
		code, counter      string
	}
	run := func(cases []errCase) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				expectError(t, s, ts, tc.method, tc.path, tc.body, tc.status, tc.code, tc.counter)
			})
		}
	}

	run([]errCase{
		{"unknown-key-versions", "GET", "/v1/docs/ghost/versions", nil, http.StatusNotFound, "not_found", bad},
		{"unknown-key-checkout", "GET", "/v1/docs/ghost/versions/1", nil, http.StatusNotFound, "not_found", bad},
		{"unknown-key-diff", "GET", "/v1/docs/ghost/diff?from=1&to=2", nil, http.StatusNotFound, "not_found", bad},
		{"unknown-key-feed", "GET", "/v1/docs/ghost/feed", nil, http.StatusNotFound, "not_found", bad},
		{"bad-format", "PUT", "/v1/docs/k", DocPutRequest{Format: "docx", Content: "x"},
			http.StatusBadRequest, "bad_request", bad},
		{"parse-failure", "PUT", "/v1/docs/k", DocPutRequest{Format: "json", Content: "{oops"},
			http.StatusBadRequest, "parse_error", bad},
		{"over-limit", "PUT", "/v1/docs/k", DocPutRequest{Format: "text",
			Content: "One. Two. Three. Four. Five. Six. Seven. Eight. Nine. Ten. Eleven. Twelve."},
			http.StatusRequestEntityTooLarge, "tree_too_large", size},
		// An unknown job id is not found like an unknown document key.
		{"unknown-job-get", "GET", "/v1/jobs/ghost", nil, http.StatusNotFound, "not_found", bad},
		{"unknown-job-cancel", "DELETE", "/v1/jobs/ghost", nil, http.StatusNotFound, "not_found", bad},
	})

	// Now with a real document behind the key.
	if status, body := putDoc(t, ts, "k", DocPutRequest{Format: "text", Content: "Tiny doc."}); status != http.StatusOK {
		t.Fatalf("seed: %d %s", status, body)
	}
	run([]errCase{
		{"unknown-version", "GET", "/v1/docs/k/versions/9", nil, http.StatusNotFound, "not_found", bad},
		{"non-integer-version", "GET", "/v1/docs/k/versions/two", nil, http.StatusBadRequest, "bad_request", bad},
		{"diff-missing-params", "GET", "/v1/docs/k/diff", nil, http.StatusBadRequest, "bad_request", bad},
		{"diff-bad-output", "GET", "/v1/docs/k/diff?from=1&to=1&output=sculpture", nil,
			http.StatusBadRequest, "bad_request", bad},
		{"diff-bad-mode", "GET", "/v1/docs/k/diff?from=1&to=1&mode=vibes", nil,
			http.StatusBadRequest, "bad_request", bad},
		{"diff-compose-delta", "GET", "/v1/docs/k/diff?from=1&to=1&mode=compose&output=delta", nil,
			http.StatusBadRequest, "bad_request", bad},
		{"feed-bad-since", "GET", "/v1/docs/k/feed?since=yesterday", nil, http.StatusBadRequest, "bad_request", bad},
		{"feed-bad-filter", "GET", "/v1/docs/k/feed?filter=%5B%5B", nil, http.StatusBadRequest, "parse_error", bad},
		{"format-mismatch", "PUT", "/v1/docs/k", DocPutRequest{Format: "html", Content: "<p>Tiny doc.</p>"},
			http.StatusConflict, "format_mismatch", bad},
	})
	t.Run("rebase-boundary-compose", func(t *testing.T) {
		if status, body := putDoc(t, ts, "rb", DocPutRequest{Format: "json", Content: `["a"]`}); status != 200 {
			t.Fatalf("seed: %d %s", status, body)
		}
		if status, body := putDoc(t, ts, "rb", DocPutRequest{Format: "json", Content: `{"k":1}`}); status != 200 {
			t.Fatalf("rebase: %d %s", status, body)
		}
		expectError(t, s, ts, "GET", "/v1/docs/rb/diff?from=1&to=2&mode=compose", nil,
			http.StatusConflict, "rebase_boundary", bad)
		// auto falls back to rediff and succeeds.
		var diff DocDiffResponse
		if status := getJSON(t, ts, "/v1/docs/rb/diff?from=1&to=2", &diff); status != http.StatusOK {
			t.Fatalf("auto across rebase: %d", status)
		}
		if diff.Mode != "rediff" {
			t.Fatalf("auto across rebase picked %q", diff.Mode)
		}
	})
}

// TestDrainEveryRoute: while the server drains, every /v1 route answers
// 503 draining before it looks at the request, and each refusal moves
// requests_total and rejected_draining_total by exactly one.
func TestDrainEveryRoute(t *testing.T) {
	s, ts, _ := newStoreServer(t, store.Config{}, Config{})
	s.BeginDrain()
	diff := DiffRequest{Old: "Alpha beta.", New: "Alpha gamma.", Format: "text"}
	for _, rt := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/diff", diff},
		{"POST", "/v1/diff/batch", BatchDiffRequest{Items: []BatchDiffItem{{DiffRequest: diff}}}},
		{"POST", "/v1/patch", PatchRequest{Base: "doc\n", Format: "tree"}},
		{"POST", "/v1/jobs/diff", JobSubmitRequest{DiffRequest: diff}},
		{"GET", "/v1/jobs/j1", nil},
		{"DELETE", "/v1/jobs/j1", nil},
		{"GET", "/v1/docs", nil},
		{"PUT", "/v1/docs/k", DocPutRequest{Format: "text", Content: "A sentence."}},
		{"GET", "/v1/docs/k/versions", nil},
		{"GET", "/v1/docs/k/versions/1", nil},
		{"GET", "/v1/docs/k/diff?from=1&to=2", nil},
		{"GET", "/v1/docs/k/feed", nil},
	} {
		t.Run(rt.method+" "+rt.path, func(t *testing.T) {
			expectError(t, s, ts, rt.method, rt.path, rt.body,
				http.StatusServiceUnavailable, "draining", "rejected_draining_total")
		})
	}
}

// TestDocEndpointsUnmountedWithoutStore: a store-less server has no
// /v1/docs routes at all.
func TestDocEndpointsUnmountedWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status := getJSON(t, ts, "/v1/docs", nil); status != http.StatusNotFound {
		t.Fatalf("/v1/docs without store: %d, want 404", status)
	}
}

// TestStoreMetricsSection: /metrics grows a store section with the
// ingest/noop/version counters.
func TestStoreMetricsSection(t *testing.T) {
	_, ts, _ := newStoreServer(t, store.Config{}, Config{})
	putDoc(t, ts, "m", DocPutRequest{Format: "text", Content: "A sentence."})
	putDoc(t, ts, "m", DocPutRequest{Format: "text", Content: "A sentence."}) // noop

	var snap struct {
		Store *store.Stats `json:"store"`
	}
	if status := getJSON(t, ts, "/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if snap.Store == nil {
		t.Fatal("metrics has no store section")
	}
	if snap.Store.Docs != 1 || snap.Store.VersionsTotal != 1 || snap.Store.NoopIngestsTotal != 1 {
		t.Fatalf("store metrics: %+v", *snap.Store)
	}
}

// sseClient opens a feed and sends every parsed event to a channel. It
// returns a cancel function that severs the connection.
func sseClient(t *testing.T, ts *httptest.Server, path string) (<-chan store.Event, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("feed %s: %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("feed content type %q", ct)
	}
	ch := make(chan store.Event, 64)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var data bytes.Buffer
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if data.Len() == 0 {
					continue
				}
				var ev store.Event
				if err := json.Unmarshal(data.Bytes(), &ev); err == nil {
					ch <- ev
				}
				data.Reset()
			case strings.HasPrefix(line, "data:"):
				data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			}
		}
	}()
	return ch, cancel
}

func nextEvent(t *testing.T, ch <-chan store.Event, what string) store.Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatalf("feed closed waiting for %s", what)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

// TestDocFeedSSE: the end-to-end feed path over a real connection —
// snapshot preamble, filtered live events, ignore-pattern suppression.
func TestDocFeedSSE(t *testing.T) {
	_, ts, _ := newStoreServer(t, store.Config{}, Config{FeedHeartbeat: 50 * time.Millisecond})
	putDoc(t, ts, "page", DocPutRequest{Format: "text",
		Content: "Stamp 001. Body text here today. Footer stays constant always."})

	ch, cancel := sseClient(t, ts,
		"/v1/docs/page/feed?filter=**/sentence[changed]&ignore=Stamp+%5Cd%2B")
	defer cancel()

	if ev := nextEvent(t, ch, "snapshot"); ev.Type != store.EventSnapshot || ev.Version != 1 {
		t.Fatalf("preamble: %+v", ev)
	}
	// A real change fires through the filter.
	putDoc(t, ts, "page", DocPutRequest{Format: "text",
		Content: "Stamp 002. Body text here tomorrow. Footer stays constant always."})
	ev := nextEvent(t, ch, "change event")
	if ev.Type != store.EventChange || ev.Version != 2 || ev.TotalHits == 0 {
		t.Fatalf("change: %+v", ev)
	}
	// Stamp-only churn is suppressed; the next real change must arrive
	// as the very next event (v3 never fired).
	putDoc(t, ts, "page", DocPutRequest{Format: "text",
		Content: "Stamp 003. Body text here tomorrow. Footer stays constant always."})
	putDoc(t, ts, "page", DocPutRequest{Format: "text",
		Content: "Stamp 004. Body text here forever. Footer stays constant always."})
	ev = nextEvent(t, ch, "post-suppression event")
	if ev.Version != 4 {
		t.Fatalf("suppression leaked: %+v", ev)
	}
}

// TestDocFeedSince: a reconnecting consumer gets the catch-up marker.
func TestDocFeedSince(t *testing.T) {
	_, ts, _ := newStoreServer(t, store.Config{}, Config{})
	for _, src := range docVersions {
		putDoc(t, ts, "page", DocPutRequest{Format: "text", Content: src})
	}
	ch, cancel := sseClient(t, ts, "/v1/docs/page/feed?since=1")
	defer cancel()
	if ev := nextEvent(t, ch, "snapshot"); ev.Type != store.EventSnapshot || ev.Version != 3 {
		t.Fatalf("snapshot: %+v", ev)
	}
	if ev := nextEvent(t, ch, "catchup"); ev.Type != store.EventCatchUp || ev.Version != 3 {
		t.Fatalf("catchup: %+v", ev)
	}
}

// TestDocFeedLimit: feeds beyond MaxFeeds are refused with 429 and a
// Retry-After, and a slot frees when a feed ends.
func TestDocFeedLimit(t *testing.T) {
	s, ts, _ := newStoreServer(t, store.Config{}, Config{MaxFeeds: 2})
	putDoc(t, ts, "page", DocPutRequest{Format: "text", Content: "A sentence."})

	_, cancel1 := sseClient(t, ts, "/v1/docs/page/feed")
	defer cancel1()
	_, cancel2 := sseClient(t, ts, "/v1/docs/page/feed")
	defer cancel2()
	waitFor(t, "two feeds registered", func() bool { return s.feeds.Load() == 2 })

	resp, err := ts.Client().Get(ts.URL + "/v1/docs/page/feed")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third feed: %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	cancel2()
	waitFor(t, "feed slot freed", func() bool { return s.feeds.Load() == 1 })
	_, cancel3 := sseClient(t, ts, "/v1/docs/page/feed")
	cancel3()
}

// TestChaosFeedStorm is the feed-side chaos battery: many subscribers —
// diligent readers, stalled readers that never drain their connection,
// and clients that disconnect mid-stream — against concurrent ingest,
// with write faults injected into the SSE path, ending in a drain-clean
// shutdown with no goroutine leaks.
func TestChaosFeedStorm(t *testing.T) {
	leak := testleak.Check(t)
	st := store.New(store.Config{FeedBuffer: 4})
	cfg := Config{FeedHeartbeat: 20 * time.Millisecond, MaxFeeds: 64}
	cfg.Store = st
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())

	putDoc(t, ts, "page", DocPutRequest{Format: "text", Content: "Seed sentence for the storm."})

	const readers, stallers, quitters = 6, 4, 4
	var cancels []context.CancelFunc
	var consumed sync.WaitGroup
	for i := 0; i < readers; i++ {
		ch, cancel := sseClient(t, ts, "/v1/docs/page/feed")
		cancels = append(cancels, cancel)
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for range ch {
			}
		}()
	}
	for i := 0; i < stallers; i++ {
		// Open the connection and never read the body: the server-side
		// buffer fills, the store drops events, ingest never blocks.
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/docs/page/feed", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		cancels = append(cancels, func() { cancel(); resp.Body.Close() })
	}
	for i := 0; i < quitters; i++ {
		ch, cancel := sseClient(t, ts, "/v1/docs/page/feed")
		consumed.Add(1)
		go func(cancel context.CancelFunc) {
			defer consumed.Done()
			<-ch // one event, then hang up mid-stream
			cancel()
			for range ch {
			}
		}(cancel)
	}

	// Concurrent ingest storm while the subscribers churn.
	var ingest sync.WaitGroup
	for w := 0; w < 4; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			for i := 0; i < 10; i++ {
				content := fmt.Sprintf("Seed sentence for the storm. Worker %d revision %d.", w, i)
				status, body := putDoc(t, ts, "page", DocPutRequest{Format: "text", Content: content})
				if status != http.StatusOK {
					t.Errorf("storm put: %d: %s", status, body)
					return
				}
			}
		}(w)
	}
	ingest.Wait()

	// Drain-clean shutdown with feeds still open: Shutdown closes the
	// subscriptions, the handlers unwind, the in-flight set empties.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with open feeds: %v", err)
	}
	for _, c := range cancels {
		c()
	}
	consumed.Wait()
	ts.Close()
	st.Close()
	leak()

	if got := st.Stats().FeedSubscribers; got != 0 {
		t.Fatalf("%d subscribers survived shutdown", got)
	}
}

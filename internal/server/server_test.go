package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ladiff"
	"ladiff/internal/edit"
	"ladiff/internal/gen"
	"ladiff/internal/store"
	"ladiff/internal/testleak"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func getJSON(t *testing.T, ts *httptest.Server, path string, dst any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, data)
		}
	}
	return resp.StatusCode
}

// send makes one request to path, with body sent as is when it is a
// []byte and JSON-encoded unless it is nil, and returns the status and
// the response body.
func send(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// failureCounters reads the counters a refused or failed request may
// move, by their /metrics names.
func failureCounters(s *Server) map[string]int64 {
	snap := s.Metrics().Snapshot()
	return map[string]int64{
		"bad_requests_total":      snap.BadRequestsTotal,
		"rejected_size_total":     snap.RejectedSizeTotal,
		"rejected_queue_total":    snap.RejectedQueueTotal,
		"rejected_draining_total": snap.RejectedDrainingTotal,
		"timeouts_total":          snap.TimeoutsTotal,
		"errors_total":            snap.ErrorsTotal,
	}
}

// expectError sends one request and checks that it fails with status
// and code, that it moves requests_total by one, and that of the
// failure counters it moves exactly counter, by one.
func expectError(t *testing.T, s *Server, ts *httptest.Server, method, path string, body any, status int, code, counter string) {
	t.Helper()
	requests, before := s.Metrics().Requests.Load(), failureCounters(s)
	got, out := send(t, ts, method, path, body)
	var envelope errorBody
	if err := json.Unmarshal(out, &envelope); got != status || err != nil || envelope.Error.Code != code {
		t.Fatalf("%s %s: %d %s, want %d %s", method, path, got, bytes.TrimSpace(out), status, code)
	}
	if n := s.Metrics().Requests.Load() - requests; n != 1 {
		t.Errorf("%s %s: requests_total moved by %d, want 1", method, path, n)
	}
	for name, n := range failureCounters(s) {
		want := int64(0)
		if name == counter {
			want = 1
		}
		if n-before[name] != want {
			t.Errorf("%s %s: %s moved by %d, want %d", method, path, name, n-before[name], want)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// installGate parks every handler of s after admission until the
// returned function opens the gate. Install it only while no handler
// is running: live handlers read s.testGate. The function may be
// called more than once, and t's cleanup calls it too, so a test that
// fails before opening the gate still releases the parked handlers
// before newTestServer's ts.Close waits for them (cleanups run last in,
// first out). A test that closes its server with defer must also defer
// the returned function, since deferred calls run before cleanups.
func installGate(t *testing.T, s *Server) (open func()) {
	t.Helper()
	gate := make(chan struct{})
	s.testGate = gate
	open = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	return open
}

// diffPairs is one old/new document pair per supported format, each
// with at least one real change.
var diffPairs = map[string][2]string{
	"text": {
		"Alpha beta gamma.\nDelta epsilon zeta.\n\nEta theta iota.\n",
		"Alpha beta gamma.\nDelta epsilon XI.\n\nEta theta iota.\nKappa lambda mu.\n",
	},
	"html": {
		"<html><body><p>Hello world today.</p><p>Second paragraph here.</p></body></html>",
		"<html><body><p>Second paragraph here.</p><p>Hello brave world today.</p></body></html>",
	},
	"json": {
		`{"name":"alpha","tags":["x","y"],"count":1}`,
		`{"name":"alpha","tags":["x","z","y"],"count":2}`,
	},
	"latex": {
		"\\documentclass{article}\n\\begin{document}\n\\section{Intro}\nAlpha beta gamma.\n\\end{document}\n",
		"\\documentclass{article}\n\\begin{document}\n\\section{Intro}\nAlpha beta delta.\nNew sentence here.\n\\end{document}\n",
	},
	"xml": {
		"<doc><item>alpha beta</item><item>gamma delta</item></doc>",
		"<doc><item>alpha beta</item><note>epsilon</note><item>gamma delta</item></doc>",
	},
	"tree": {
		"doc\n  p\n    s \"alpha beta gamma\"\n    s \"delta epsilon zeta\"\n",
		"doc\n  p\n    s \"delta epsilon zeta\"\n    s \"alpha beta gamma nu\"\n",
	},
}

// TestDiffFormats exercises the happy path of POST /v1/diff for every
// parser front end and every output mode.
func TestDiffFormats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for format, pair := range diffPairs {
		for _, output := range Outputs {
			status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
				Old: pair[0], New: pair[1], Format: format, Output: output,
			})
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", format, output, status, body)
			}
			var resp DiffResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s/%s: decoding response: %v", format, output, err)
			}
			if resp.Stats.Ops == 0 {
				t.Errorf("%s/%s: no edit operations for a changed document", format, output)
			}
			if resp.Stats.OldNodes == 0 || resp.Stats.NewNodes == 0 {
				t.Errorf("%s/%s: zero node counts: %+v", format, output, resp.Stats)
			}
			switch output {
			case "script":
				if len(resp.Script) != resp.Stats.Ops {
					t.Errorf("%s: script has %d ops, stats say %d", format, len(resp.Script), resp.Stats.Ops)
				}
			case "delta":
				var dt ladiff.DeltaTree
				if err := json.Unmarshal(resp.Delta, &dt); err != nil {
					t.Errorf("%s: delta does not decode as a delta tree: %v", format, err)
				}
			case "marked":
				if resp.Document == "" {
					t.Errorf("%s: empty marked document", format)
				}
			}
			for _, phase := range []string{"parse", "match", "generate", "render"} {
				if _, ok := resp.Stats.PhaseMicros[phase]; !ok {
					t.Errorf("%s/%s: missing phase timing %q", format, output, phase)
				}
			}
		}
	}

	snap := s.Metrics().Snapshot()
	want := int64(len(diffPairs) * len(Outputs))
	if snap.DiffsTotal != want {
		t.Errorf("diffs_total = %d, want %d", snap.DiffsTotal, want)
	}
	if snap.RequestsTotal != want {
		t.Errorf("requests_total = %d, want %d", snap.RequestsTotal, want)
	}
	for _, phase := range []string{"parse", "match", "generate", "render"} {
		if snap.PhaseUS[phase].Count != want {
			t.Errorf("phase %s count = %d, want %d", phase, snap.PhaseUS[phase].Count, want)
		}
	}
	if snap.RequestUS.Count != want {
		t.Errorf("request_us count = %d, want %d", snap.RequestUS.Count, want)
	}
	if snap.OldNodesTotal == 0 || snap.NewNodesTotal == 0 {
		t.Errorf("node totals not recorded: old=%d new=%d", snap.OldNodesTotal, snap.NewNodesTotal)
	}
}

// TestPatchRoundTrip pins the /v1/patch contract: applying a script
// produced by /v1/diff transforms the base into the new document, and
// invert mode produces a verified inverse plus the reverted document.
func TestPatchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pair := diffPairs["tree"]

	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: pair[0], New: pair[1], Format: "tree", Output: "script",
	})
	if status != http.StatusOK {
		t.Fatalf("diff: status %d: %s", status, body)
	}
	var diff DiffResponse
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatal(err)
	}

	// Forward: base + script must equal the new document.
	status, body, _ = postJSON(t, ts, "/v1/patch", PatchRequest{
		Base: pair[0], Format: "tree", Script: diff.Script,
	})
	if status != http.StatusOK {
		t.Fatalf("patch: status %d: %s", status, body)
	}
	var patched PatchResponse
	if err := json.Unmarshal(body, &patched); err != nil {
		t.Fatal(err)
	}
	gotT, err := ladiff.ParseTree(patched.Document)
	if err != nil {
		t.Fatalf("patched document does not parse: %v", err)
	}
	wantT, err := ladiff.ParseTree(pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if !ladiff.Isomorphic(gotT, wantT) {
		t.Fatalf("patched document differs from the new version:\n%s\nvs\n%s", patched.Document, pair[1])
	}

	// Inverse: the server verifies apply(script); apply(inverse) lands
	// back on base and returns the reverted document as proof.
	status, body, _ = postJSON(t, ts, "/v1/patch", PatchRequest{
		Base: pair[0], Format: "tree", Script: diff.Script, Invert: true,
	})
	if status != http.StatusOK {
		t.Fatalf("invert: status %d: %s", status, body)
	}
	var inverted PatchResponse
	if err := json.Unmarshal(body, &inverted); err != nil {
		t.Fatal(err)
	}
	if len(inverted.Script) == 0 {
		t.Fatal("invert returned an empty inverse for a non-empty script")
	}
	revT, err := ladiff.ParseTree(inverted.Document)
	if err != nil {
		t.Fatalf("reverted document does not parse: %v", err)
	}
	baseT, err := ladiff.ParseTree(pair[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ladiff.Isomorphic(revT, baseT) {
		t.Fatalf("reverted document differs from base:\n%s\nvs\n%s", inverted.Document, pair[0])
	}
}

// TestPatchRejectsHugeInsertID: an insert whose caller-chosen ID lies
// far past the base tree's bound answers 422 patch_error, in both
// directions, without the tree allocating a node table for that ID.
func TestPatchRejectsHugeInsertID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	script := edit.Script{edit.Ins(1<<40, "s", "x", 1, 1)}
	for _, invert := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status, body, _ := postJSON(t, ts, "/v1/patch", PatchRequest{
			Base: "doc\n  s \"a\"", Format: "tree", Script: script, Invert: invert,
		})
		runtime.ReadMemStats(&after)
		if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "patch_error") {
			t.Fatalf("invert=%v: status %d: %s, want 422 patch_error", invert, status, body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("invert=%v: request allocated %d bytes, want under 1 MiB", invert, grew)
		}
	}
}

// TestPatchErrors pins /v1/patch's failures and the counter each moves:
// an unknown format, a base that does not parse, and a script that
// does not apply to it, forward or inverted.
func TestPatchErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := "doc\n  s \"a\"\n"
	expectError(t, s, ts, "POST", "/v1/patch", PatchRequest{Base: base, Format: "pdf"},
		http.StatusBadRequest, "bad_request", "bad_requests_total")
	expectError(t, s, ts, "POST", "/v1/patch", PatchRequest{Base: "doc\n  s \"unclosed", Format: "tree"},
		http.StatusBadRequest, "parse_error", "bad_requests_total")
	for _, invert := range []bool{false, true} {
		expectError(t, s, ts, "POST", "/v1/patch",
			PatchRequest{Base: base, Format: "tree", Script: edit.Script{edit.Del(99)}, Invert: invert},
			http.StatusUnprocessableEntity, "patch_error", "errors_total")
	}
}

// invalidUTF8Bodies holds, for each JSON route, a request body whose
// document holds a "~" that the test replaces with the lone byte 0xCE,
// the lead byte of a two-byte sequence that never completes.
var invalidUTF8Bodies = []struct{ method, path, body string }{
	{"POST", "/v1/diff", `{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}`},
	{"POST", "/v1/diff/batch", `{"items":[{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}]}`},
	{"POST", "/v1/patch", `{"base":"Alpha ~ beta.","format":"text"}`},
	{"POST", "/v1/jobs/diff", `{"old":"Alpha ~ beta.","new":"Alpha beta.","format":"text"}`},
	{"PUT", "/v1/docs/k", `{"format":"text","content":"Alpha ~ beta."}`},
}

// TestInvalidUTF8Refused: a JSON body that is not valid UTF-8 is
// refused with 400 bad_request naming the first bad byte, on every
// JSON route, rather than decoded with U+FFFD in place of the byte.
func TestInvalidUTF8Refused(t *testing.T) {
	s, ts, _ := newStoreServer(t, store.Config{}, Config{})
	for _, c := range invalidUTF8Bodies {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			body := []byte(strings.Replace(c.body, "~", "\xce", 1))
			expectError(t, s, ts, c.method, c.path, body, http.StatusBadRequest, "bad_request", "bad_requests_total")
			_, out := send(t, ts, c.method, c.path, body)
			want := fmt.Sprintf("first bad byte at offset %d", bytes.IndexByte(body, 0xce))
			if !bytes.Contains(out, []byte(want)) {
				t.Errorf("%s: want the message to say %q", out, want)
			}
		})
	}
}

// TestBadRequests covers the 400 family: malformed JSON, unknown
// format, unknown output, and an unparsable document.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := ts.Client().Post(ts.URL+"/v1/diff", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	status, _, _ := postJSON(t, ts, "/v1/diff", DiffRequest{Old: "a", New: "b", Format: "pdf"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", status)
	}
	status, _, _ = postJSON(t, ts, "/v1/diff", DiffRequest{Old: "a", New: "b", Format: "text", Output: "hologram"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown output: status %d, want 400", status)
	}
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: "doc\n  s \"unclosed", New: "doc\n", Format: "tree",
	})
	if status != http.StatusBadRequest {
		t.Errorf("unparsable document: status %d, want 400: %s", status, body)
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "parse_error" {
		t.Errorf("parse failure envelope = %s, want code parse_error", body)
	}

	if got := s.Metrics().BadRequests.Load(); got != 4 {
		t.Errorf("bad_requests_total = %d, want 4", got)
	}
}

// TestOversizedInput covers both 413 paths: a request body over
// MaxBodyBytes and a parsed tree over MaxTreeNodes.
func TestOversizedInput(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10, MaxTreeNodes: 8})

	big := strings.Repeat("Huge sentence of padding here. ", 200)
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{Old: big, New: big, Format: "text"})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", status, body)
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "too_large" {
		t.Errorf("oversized body envelope = %s, want code too_large", body)
	}

	// Small body, many nodes: each sentence is a node.
	manyNodes := strings.Repeat("One two.\n", 12)
	status, body, _ = postJSON(t, ts, "/v1/diff", DiffRequest{Old: manyNodes, New: "One two.\n", Format: "text"})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tree: status %d, want 413: %s", status, body)
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "tree_too_large" {
		t.Errorf("oversized tree envelope = %s, want code tree_too_large", body)
	}

	if got := s.Metrics().RejectedSize.Load(); got != 2 {
		t.Errorf("rejected_size_total = %d, want 2", got)
	}
}

// TestQueueOverflow pins the admission controller: with one execution
// slot and a one-deep queue, a third concurrent request is shed with
// 429 + Retry-After while the first two eventually succeed.
func TestQueueOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	openGate := installGate(t, s)
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		status, body, _ := postJSON(t, ts, "/v1/diff", req)
		results <- result{status, body}
	}

	// First request: admitted, holds the only slot, parked on the gate.
	go post()
	waitFor(t, "first request in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })

	// Second request: no free slot, waits in the queue.
	go post()
	waitFor(t, "second request queued", func() bool { return s.Metrics().Queued.Load() == 1 })

	// Third request: queue full — shed immediately.
	status, body, hdr := postJSON(t, ts, "/v1/diff", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "queue_full" {
		t.Errorf("overflow envelope = %s, want code queue_full", body)
	}

	// Open the gate: both blocked requests must complete normally.
	openGate()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("blocked request %d: status %d: %s", i, r.status, r.body)
		}
	}
	if got := s.Metrics().RejectedQueue.Load(); got != 1 {
		t.Errorf("rejected_queue_total = %d, want 1", got)
	}
}

// TestDeadlineExceeded pins per-request cancellation: a tiny timeout on
// a large pair aborts mid-pipeline with 504, and the phase histograms
// show where the request died — parse completed, match/generate/render
// never did.
func TestDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	openGate := installGate(t, s)
	doc := gen.Document(gen.DocParams{Seed: 11, Sections: 20, MinParagraphs: 5, MaxParagraphs: 8, MinSentences: 6, MaxSentences: 10, Vocabulary: 4000})
	pert, err := gen.Perturb(doc, gen.Mix(13, 80))
	if err != nil {
		t.Fatal(err)
	}
	req := DiffRequest{
		Old:       ladiff.RenderText(doc),
		New:       ladiff.RenderText(pert.New),
		Format:    "text",
		TimeoutMs: 1,
	}
	// Hold the request at the gate until its 1ms deadline has certainly
	// expired (the context starts at admission, before the gate): the
	// deadline then trips deterministically at the first match-phase
	// poll, however fast the pipeline is.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, body, _ := postJSON(t, ts, "/v1/diff", req)
		done <- result{status, body}
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	openGate()
	r := <-done
	status, body := r.status, r.body
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", status, body)
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "deadline_exceeded" {
		t.Errorf("envelope = %.200s, want code deadline_exceeded", body)
	}

	snap := s.Metrics().Snapshot()
	if snap.TimeoutsTotal != 1 {
		t.Errorf("timeouts_total = %d, want 1", snap.TimeoutsTotal)
	}
	if snap.PhaseUS["parse"].Count != 1 {
		t.Errorf("parse phase count = %d, want 1 (parse completed before the deadline)", snap.PhaseUS["parse"].Count)
	}
	for _, phase := range []string{"generate", "render"} {
		if snap.PhaseUS[phase].Count != 0 {
			t.Errorf("%s phase count = %d, want 0 (aborted before completion)", phase, snap.PhaseUS[phase].Count)
		}
	}
	if snap.RequestUS.Count != 0 {
		t.Errorf("request_us count = %d, want 0 (no request completed)", snap.RequestUS.Count)
	}
}

// TestGracefulDrain pins shutdown: in-flight requests finish, new ones
// are refused with 503, /readyz flips not-ready (while /healthz stays
// 200 — the process is alive, just not routable), Shutdown returns
// once the last request drains, and no goroutine (handlers, drain
// waiter, admission queue) outlives the server.
func TestGracefulDrain(t *testing.T) {
	// The leak check is registered before the test server starts so its
	// deferred sweep runs after ts.Close tears the server down (defers
	// run LIFO; newTestServer's t.Cleanup would close too late).
	defer testleak.Check(t)()
	s := New(Config{MaxConcurrent: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	openGate := installGate(t, s)
	defer openGate()
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}

	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postJSON(t, ts, "/v1/diff", req)
		inflight <- status
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(t.Context()) }()
	waitFor(t, "server draining", func() bool {
		return getJSON(t, ts, "/readyz", nil) == http.StatusServiceUnavailable
	})
	if status := getJSON(t, ts, "/healthz", nil); status != http.StatusOK {
		t.Errorf("/healthz during drain: status %d, want 200 (liveness is not readiness)", status)
	}

	// New work is refused while draining.
	status, body, _ := postJSON(t, ts, "/v1/diff", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503: %s", status, body)
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "draining" {
		t.Errorf("drain envelope = %s, want code draining", body)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	default:
	}

	// Release the in-flight request: it completes and Shutdown returns.
	openGate()
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request: status %d, want 200", status)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last request drained")
	}
	if got := s.Metrics().RejectedDraining.Load(); got != 1 {
		t.Errorf("rejected_draining_total = %d, want 1", got)
	}
}

// TestReadyzDrainOrdering pins the exact sequence the routing tier
// depends on: BeginDrain returns → /readyz is already 503 (not
// eventually — the very next probe sees it) → the in-flight connection
// is still running and completes afterwards. /healthz reports live at
// every step. If readiness flipped only after in-flight work finished,
// the router would keep sending new requests into a drain window.
func TestReadyzDrainOrdering(t *testing.T) {
	defer testleak.Check(t)()
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	openGate := installGate(t, s)
	defer openGate()
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}

	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postJSON(t, ts, "/v1/diff", req)
		inflight <- status
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })
	if status := getJSON(t, ts, "/readyz", nil); status != http.StatusOK {
		t.Fatalf("/readyz before drain: status %d, want 200", status)
	}

	// BeginDrain is synchronous: readiness must be gone the moment it
	// returns, with the request still in flight.
	s.BeginDrain()
	if status := getJSON(t, ts, "/readyz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("/readyz immediately after BeginDrain: status %d, want 503", status)
	}
	if status := getJSON(t, ts, "/healthz", nil); status != http.StatusOK {
		t.Errorf("/healthz immediately after BeginDrain: status %d, want 200", status)
	}
	if got := s.Metrics().InFlight.Load(); got != 1 {
		t.Fatalf("in-flight count = %d after BeginDrain, want 1 (drain must not cut connections)", got)
	}

	// Only now does the admitted request complete — strictly after the
	// readiness flip was observable.
	openGate()
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request: status %d, want 200", status)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestMetricsEndpoint checks the scrape itself: well-formed JSON with
// every counter and histogram present.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pair := diffPairs["json"]
	if status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{Old: pair[0], New: pair[1], Format: "json"}); status != http.StatusOK {
		t.Fatalf("diff: status %d: %s", status, body)
	}

	var snap MetricsSnapshot
	if status := getJSON(t, ts, "/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if snap.RequestsTotal != 1 || snap.DiffsTotal != 1 {
		t.Errorf("requests=%d diffs=%d, want 1/1", snap.RequestsTotal, snap.DiffsTotal)
	}
	if len(snap.PhaseUS) != int(numPhases) {
		t.Errorf("phase_us has %d entries, want %d", len(snap.PhaseUS), numPhases)
	}
	if snap.RequestUS.Count != 1 || snap.RequestUS.P50US == 0 {
		t.Errorf("request_us = %+v, want one sample with a non-zero p50", snap.RequestUS)
	}
}

// TestHistogramQuantiles pins the bucket math directly.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket [2,4) µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000 * time.Microsecond) // bucket [512,1024) µs
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50US != 4 {
		t.Errorf("p50 = %dµs, want 4 (upper edge of the [2,4) bucket)", s.P50US)
	}
	if s.P95US != 1024 || s.P99US != 1024 {
		t.Errorf("p95/p99 = %d/%d µs, want 1024/1024", s.P95US, s.P99US)
	}
	var empty Histogram
	if q := empty.Snapshot(); q.P50US != 0 || q.Count != 0 {
		t.Errorf("empty histogram snapshot = %+v, want zeros", q)
	}
}

// TestDebugHandler checks that the pprof index is mounted on the debug
// mux and absent from the service mux.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	resp, err := dbg.Client().Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux pprof index: status %d, want 200", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("service mux serves pprof; debug endpoints must stay on the debug mux")
	}
}

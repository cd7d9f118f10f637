package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/textdoc"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// batteryClasses is the batch differential battery's workload axis:
// every standard class, with sparse-1pct scaled from ~224 to 8
// sections (edit rate kept at ~1%) exactly as the E14 frontier harness
// scales it, so the optimal-oracle engines stay tractable inside a
// unit test.
func batteryClasses() []gen.Class {
	var out []gen.Class
	for _, c := range gen.Classes() {
		if c.Name == "sparse-1pct" {
			c.Name = "sparse-1pct-s8"
			c.Doc.Sections = 8
			c.Pert = func(seed int64) gen.PerturbParams { return gen.Mix(seed, 2) }
		}
		out = append(out, c)
	}
	return out
}

// renderPair generates one old/new text-document pair for a class.
func renderPair(t *testing.T, c gen.Class, seed int64) (string, string) {
	t.Helper()
	doc := c.Doc
	doc.Seed = seed
	oldT := gen.Document(doc)
	pert, err := gen.Perturb(oldT, c.Pert(seed+1))
	if err != nil {
		t.Fatalf("Perturb(%s): %v", c.Name, err)
	}
	return textdoc.Render(oldT), textdoc.Render(pert.New)
}

// normalizeResponse re-marshals a DiffResponse with its wall-clock
// phase times zeroed (values only — the key set stays, because which
// phases completed is part of the contract). Everything else must be
// byte-identical between a batch item and the equivalent single
// request.
func normalizeResponse(t *testing.T, raw []byte) string {
	t.Helper()
	var resp DiffResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding diff response: %v\n%s", err, raw)
	}
	for k := range resp.Stats.PhaseMicros {
		resp.Stats.PhaseMicros[k] = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestBatchSequentialDifferential is the battery pinning the tentpole
// guarantee: a batch of N items is observably identical to the N
// sequential /v1/diff requests — per item, the response body is
// byte-identical after zeroing the phase wall times (the only
// nondeterministic field), and an invalid item fails with exactly the
// status/code/message envelope the single-request path produces.
// Engines cross the full quality frontier; the optimal engine runs one
// seed per class to bound runtime, the default engine three.
func TestBatchSequentialDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	engines := []struct {
		name  string
		seeds []int64
	}{
		{"fast", []int64{501, 502, 503}},
		{"zs", []int64{511}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var items []BatchDiffItem
			for _, c := range batteryClasses() {
				for _, seed := range eng.seeds {
					it := BatchDiffItem{ID: fmt.Sprintf("%s-%d", c.Name, seed)}
					it.Old, it.New = renderPair(t, c, seed)
					it.Format = "text"
					it.Matcher = eng.name
					items = append(items, it)
				}
			}
			// Mixed validity: these must fail alone, exactly as they
			// would as single requests, without touching their neighbors.
			badFormat := BatchDiffItem{ID: "bad-format"}
			badFormat.Format = "no-such-format"
			badFormat.Old, badFormat.New = "a", "b"
			badMatcher := BatchDiffItem{ID: "bad-matcher"}
			badMatcher.Format = "text"
			badMatcher.Matcher = "no-such-engine"
			badMatcher.Old, badMatcher.New = "a", "b"
			items = append(items, badFormat, badMatcher)

			// Sequential oracle: each item through POST /v1/diff.
			type seqResult struct {
				status int
				body   []byte
			}
			seq := make([]seqResult, len(items))
			for i, it := range items {
				status, body, _ := postJSON(t, ts, "/v1/diff", it.DiffRequest)
				seq[i] = seqResult{status, body}
			}

			status, body, _ := postJSON(t, ts, "/v1/diff/batch", BatchDiffRequest{Items: items})
			if status != http.StatusOK {
				t.Fatalf("batch status %d: %s", status, body)
			}
			var out BatchDiffResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("decoding batch response: %v", err)
			}
			if len(out.Items) != len(items) {
				t.Fatalf("batch returned %d items, want %d", len(out.Items), len(items))
			}
			wantFailed := 2
			if out.Succeeded != len(items)-wantFailed || out.Failed != wantFailed {
				t.Errorf("succeeded=%d failed=%d, want %d/%d",
					out.Succeeded, out.Failed, len(items)-wantFailed, wantFailed)
			}
			for i, item := range out.Items {
				if item.ID != items[i].ID {
					t.Fatalf("item %d: id %q, want %q (order must be preserved)", i, item.ID, items[i].ID)
				}
				if seq[i].status == http.StatusOK {
					if item.Error != nil {
						t.Errorf("%s: batch failed (%+v) where sequential succeeded", item.ID, item.Error)
						continue
					}
					got, err := json.Marshal(item.Response)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := normalizeResponse(t, got), normalizeResponse(t, seq[i].body); g != w {
						t.Errorf("%s: batch response diverges from sequential:\nbatch: %s\nseq:   %s", item.ID, g, w)
					}
					continue
				}
				if item.Error == nil {
					t.Errorf("%s: batch succeeded where sequential failed %d", item.ID, seq[i].status)
					continue
				}
				var envelope struct {
					Error struct {
						Code    string `json:"code"`
						Message string `json:"message"`
					} `json:"error"`
				}
				if err := json.Unmarshal(seq[i].body, &envelope); err != nil {
					t.Fatalf("%s: sequential error body: %v", item.ID, err)
				}
				if item.Error.Status != seq[i].status || item.Error.Code != envelope.Error.Code ||
					item.Error.Message != envelope.Error.Message {
					t.Errorf("%s: batch error %+v, sequential %d %s %q",
						item.ID, item.Error, seq[i].status, envelope.Error.Code, envelope.Error.Message)
				}
			}
		})
	}
}

// TestBatchSingleItemEnvelope pins the regression guard the fuzz
// target relies on: a one-item batch is the single request, down to
// the normalized bytes and the per-item metric accounting.
func TestBatchSingleItemEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var it BatchDiffItem
	it.Format = "text"
	it.Old, it.New = renderPair(t, batteryClasses()[0], 601)

	status, single, _ := postJSON(t, ts, "/v1/diff", it.DiffRequest)
	if status != http.StatusOK {
		t.Fatalf("diff status %d: %s", status, single)
	}
	diffsBefore := s.met.Diffs.Load()

	status, body, _ := postJSON(t, ts, "/v1/diff/batch", BatchDiffRequest{Items: []BatchDiffItem{it}})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var out BatchDiffResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != 1 || out.Failed != 0 || len(out.Items) != 1 {
		t.Fatalf("unexpected envelope: %s", body)
	}
	got, _ := json.Marshal(out.Items[0].Response)
	if g, w := normalizeResponse(t, got), normalizeResponse(t, single); g != w {
		t.Errorf("single-item batch diverges from /v1/diff:\nbatch: %s\nseq:   %s", g, w)
	}
	if d := s.met.Diffs.Load() - diffsBefore; d != 1 {
		t.Errorf("batch item bumped diffs_total by %d, want 1", d)
	}
	if s.met.BatchRequests.Load() != 1 || s.met.BatchItems.Load() != 1 {
		t.Errorf("batch counters = %d/%d, want 1/1",
			s.met.BatchRequests.Load(), s.met.BatchItems.Load())
	}
}

// TestBatchBounds pins the whole-request rejections: empty batches,
// too many items, duplicate IDs, and aggregate bytes over the cap.
func TestBatchBounds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatchItems: 2, MaxBatchBytes: 64})
	mk := func(id, old string) BatchDiffItem {
		it := BatchDiffItem{ID: id}
		it.Format = "text"
		it.Old, it.New = old, old+" changed"
		return it
	}
	cases := []struct {
		name   string
		items  []BatchDiffItem
		status int
		code   string
	}{
		{"empty", nil, http.StatusBadRequest, "bad_request"},
		{"too-many", []BatchDiffItem{mk("a", "x"), mk("b", "x"), mk("c", "x")},
			http.StatusRequestEntityTooLarge, "too_many_items"},
		{"duplicate-ids", []BatchDiffItem{mk("a", "x"), mk("a", "y")},
			http.StatusBadRequest, "bad_request"},
		{"too-large", []BatchDiffItem{mk("a", strings.Repeat("word ", 20))},
			http.StatusRequestEntityTooLarge, "batch_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postJSON(t, ts, "/v1/diff/batch", BatchDiffRequest{Items: tc.items})
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != tc.code {
				t.Errorf("error code %q (err %v), want %q", envelope.Error.Code, err, tc.code)
			}
		})
	}
	if got := s.met.BatchRequests.Load(); got != 0 {
		t.Errorf("rejected batches counted as accepted: batch_requests_total = %d", got)
	}
}

// FuzzBatchRequestDecode throws malformed bodies at the batch
// endpoint: broken JSON, empty and oversized item arrays, duplicate
// IDs, mixed formats, wrong-typed fields. The invariants: the server
// never panics, every response is well-formed JSON, and a 200 carries
// exactly one result per request item with succeeded+failed adding up.
func FuzzBatchRequestDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"items":[]}`,
		`{"items":null}`,
		`not json at all`,
		`{"items":[{"old":"a","new":"b","format":"text"}]}`,
		`{"items":[{"id":"x","old":"a","new":"b","format":"text"},{"id":"x","old":"c","new":"d","format":"text"}]}`,
		`{"items":[{"old":"a","new":"b","format":"text"},{"old":"a","new":"b","format":"latex"},{"old":"a","new":"b","format":"nope"}]}`,
		`{"items":[{"old":"a","new":"b","format":"text","matcher":"zs","output":"delta"}]}`,
		`{"items":[{"old":1,"new":true,"format":{}}]}`,
		`{"items":"not-an-array"}`,
		`{"items":[` + strings.Repeat(`{"old":"a","new":"b","format":"text"},`, 9) + `{"old":"a","new":"b","format":"text"}]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := New(Config{MaxBatchItems: 8, Logger: discardLogger()})
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/diff/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == 0 {
			t.Fatal("no status written")
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d carried invalid JSON: %q", rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var out BatchDiffResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 body failed to decode: %v", err)
		}
		var in BatchDiffRequest
		if err := json.Unmarshal([]byte(body), &in); err != nil {
			t.Fatalf("server accepted a body the wire type rejects: %v", err)
		}
		if len(out.Items) != len(in.Items) {
			t.Fatalf("200 returned %d items for %d request items", len(out.Items), len(in.Items))
		}
		if out.Succeeded+out.Failed != len(out.Items) {
			t.Fatalf("succeeded %d + failed %d != items %d", out.Succeeded, out.Failed, len(out.Items))
		}
		for i, item := range out.Items {
			if (item.Response == nil) == (item.Error == nil) {
				t.Fatalf("item %d: exactly one of response/error must be set: %+v", i, item)
			}
		}
	})
}

package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/obs"
)

const cacheOld = "First sentence here. Second sentence here.\n\nAnother paragraph entirely."
const cacheNew = "First sentence here. Second sentence changed.\n\nAnother paragraph entirely."

func diffOnce(t *testing.T, ts *httptest.Server, body DiffRequest) DiffResponse {
	t.Helper()
	status, raw, _ := postJSON(t, ts, "/v1/diff", body)
	if status != http.StatusOK {
		t.Fatalf("diff status %d: %s", status, raw)
	}
	var resp DiffResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding diff response: %v", err)
	}
	return resp
}

// answer is what a diff response says about its documents: the
// script, delta or marked document and the Stats counts, as JSON,
// without the timings and the Cached flag.
func answer(t *testing.T, resp DiffResponse) string {
	t.Helper()
	resp.Cached = false
	resp.Stats.PhaseMicros = nil
	b, err := json.Marshal(resp)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

// TestDiffCacheHit: the second identical request is served from the
// cache — the same answer with the Cached flag set, no parse, a hit
// counted. A request whose old document differs only in whitespace
// the text parser normalizes parses to the same trees but repeats no
// bytes: it misses, parses once more and computes the same script,
// delta or marked document, without the Cached flag; its own repeat is
// a hit. No response is served on an equality of parsed content.
func TestDiffCacheHit(t *testing.T) {
	if ladiff.ParseText(cacheOld).String() != ladiff.ParseText(cacheOldSpaced).String() {
		t.Fatal("the whitespace variant parses to another tree")
	}
	for _, output := range []string{"script", "delta", "marked"} {
		s, ts := newTestServer(t, Config{DiffCacheEntries: 8})
		req := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Output: output}
		spaced := req
		spaced.Old = cacheOldSpaced
		var want string
		for i, step := range []struct {
			name   string
			req    DiffRequest
			cached bool
			parses int64
		}{
			{"first", req, false, 1},
			{"repeat", req, true, 1},
			{"whitespace variant", spaced, false, 2},
			{"whitespace variant repeat", spaced, true, 2},
		} {
			resp := diffOnce(t, ts, step.req)
			if i == 0 {
				want = answer(t, resp)
			}
			if resp.Cached != step.cached {
				t.Errorf("%s: %s: cached = %v, want %v", output, step.name, resp.Cached, step.cached)
			}
			if got := s.Metrics().Snapshot().PhaseUS["parse"].Count; got != step.parses {
				t.Errorf("%s: %s: phase_us.parse.count = %d, want %d", output, step.name, got, step.parses)
			}
			if got := answer(t, resp); got != want {
				t.Errorf("%s: %s answered\n%s\nwant\n%s", output, step.name, got, want)
			}
		}
		m := s.Metrics().Snapshot()
		if m.Cache.Hits != 2 || m.Cache.Misses != 2 {
			t.Errorf("%s: cache traffic = %d hits / %d misses, want 2/2", output, m.Cache.Hits, m.Cache.Misses)
		}
		if m.Cache.Size != 2 || m.Cache.Capacity != 8 {
			t.Errorf("%s: cache size/capacity = %d/%d, want 2/8", output, m.Cache.Size, m.Cache.Capacity)
		}
	}
}

// TestDiffCacheKeyedByOptions: the same documents under different
// output or matcher options are distinct entries.
func TestDiffCacheKeyedByOptions(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 8})

	diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"})
	asDelta := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Output: "delta"})
	if asDelta.Cached {
		t.Error("different output served from cache")
	}
	asSimple := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Matcher: "simple"})
	if asSimple.Cached {
		t.Error("different matcher served from cache")
	}
	// "fast" is the default matcher: naming it explicitly is the same key.
	asFast := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Matcher: "fast"})
	if !asFast.Cached {
		t.Error("explicit default matcher missed the cache")
	}

	if m := s.Metrics().Snapshot(); m.Cache.Size != 3 {
		t.Errorf("cache holds %d entries, want 3", m.Cache.Size)
	}
}

// TestDiffCacheEviction: a capacity-1 cache evicts LRU; returning to
// the evicted pair recomputes.
func TestDiffCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 1})

	a := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"}
	b := DiffRequest{Old: "Entirely different text.", New: "Entirely different words.", Format: "text"}
	diffOnce(t, ts, a)
	diffOnce(t, ts, b) // evicts a
	if again := diffOnce(t, ts, a); again.Cached {
		t.Error("evicted entry was served from cache")
	}
	m := s.Metrics().Snapshot()
	if m.Cache.Evictions < 1 {
		t.Errorf("evictions = %d, want ≥ 1", m.Cache.Evictions)
	}
	if m.Cache.Size != 1 {
		t.Errorf("cache size = %d, want 1 at capacity 1", m.Cache.Size)
	}
}

// TestDiffCacheDisabledByDefault: the zero config has no cache — no
// counter moves, no Cached responses.
func TestDiffCacheDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"}
	diffOnce(t, ts, req)
	if resp := diffOnce(t, ts, req); resp.Cached {
		t.Error("cacheless server served a cached response")
	}
	m := s.Metrics().Snapshot()
	if m.Cache != (CacheSnapshot{}) {
		t.Errorf("cacheless server reported cache traffic: %+v", m.Cache)
	}
}

// TestDiffCacheSkipsDegraded: a degraded response (budget fallback)
// must not be stored — the repeat recomputes, and its exact body never
// reaches an entry, so it is not answered at the body level either.
func TestDiffCacheSkipsDegraded(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 8, MatchWorkBudget: 1})
	req := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Matcher: "simple"}

	first := diffOnce(t, ts, req)
	if !first.Degraded {
		t.Skip("budget of 1 did not degrade; cannot exercise the skip")
	}
	second := diffOnce(t, ts, req)
	if second.Cached {
		t.Error("degraded response was replayed from cache")
	}
	if m := s.Metrics().Snapshot(); m.Cache.Hits != 0 {
		t.Errorf("cache hits = %d, want 0", m.Cache.Hits)
	}
	if indexed, _ := bodyState(s, marshalDiff(t, req)); indexed {
		t.Error("a degraded request's body key is indexed")
	}
}

// TestDiffPruneRequest: the per-request prune knob short-circuits
// identical documents — zero ops, every node matched — and differing
// documents still produce a correct script.
func TestDiffPruneRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	same := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheOld, Format: "text", Prune: true})
	if len(same.Script) != 0 {
		t.Errorf("identical documents produced %d ops under prune", len(same.Script))
	}
	if same.Stats.Matched != same.Stats.OldNodes {
		t.Errorf("short circuit matched %d of %d nodes", same.Stats.Matched, same.Stats.OldNodes)
	}

	pruned := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text", Prune: true})
	base := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"})
	if len(pruned.Script) == 0 {
		t.Error("differing documents produced an empty script under prune")
	}
	if pruned.Stats.Matched != base.Stats.Matched {
		t.Errorf("pruned run matched %d nodes, unpruned %d", pruned.Stats.Matched, base.Stats.Matched)
	}
}

// TestDiffPruneServerWide: Config.PruneIdentical applies the ladder to
// requests that did not ask for it.
func TestDiffPruneServerWide(t *testing.T) {
	_, ts := newTestServer(t, Config{PruneIdentical: true})
	same := diffOnce(t, ts, DiffRequest{Old: cacheOld, New: cacheOld, Format: "text"})
	if len(same.Script) != 0 {
		t.Errorf("identical documents produced %d ops under server-wide prune", len(same.Script))
	}
}

// cacheOldSpaced is cacheOld with whitespace the text parser normalizes
// away: the same trees under a different source key.
const cacheOldSpaced = "First sentence here.   Second sentence here.\n\nAnother paragraph entirely.\n"

// TestDiffCacheSourceHitSkipsParse: the same documents in another body
// are answered by the source key before anything is parsed; a
// whitespace variant is its own entry, parsed once, after which its
// repeat skips the parse too. Node volumes and the hit/miss counters
// account every request exactly as a parse would. Batch items and jobs
// share the path.
func TestDiffCacheSourceHitSkipsParse(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 8})
	a := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"}
	aTimed := a
	aTimed.TimeoutMs = 5000
	aSpaced := a
	aSpaced.Old = cacheOldSpaced

	parses := func() int64 { return s.Metrics().Snapshot().PhaseUS["parse"].Count }
	var oldStep, newStep int64
	for i, step := range []struct {
		name   string
		req    DiffRequest
		parses int64
		cached bool
	}{
		{"A", a, 1, false},
		{"A in another body", aTimed, 1, true},
		{"A spaced", aSpaced, 2, false},
		{"A spaced again", aSpaced, 2, true},
	} {
		before := s.Metrics().Snapshot()
		resp := diffOnce(t, ts, step.req)
		after := s.Metrics().Snapshot()
		if resp.Cached != step.cached {
			t.Errorf("%s: cached = %v, want %v", step.name, resp.Cached, step.cached)
		}
		if got := after.PhaseUS["parse"].Count; got != step.parses {
			t.Errorf("%s: phase_us.parse.count = %d, want %d", step.name, got, step.parses)
		}
		dOld := after.OldNodesTotal - before.OldNodesTotal
		dNew := after.NewNodesTotal - before.NewNodesTotal
		if i == 0 {
			oldStep, newStep = dOld, dNew
		}
		if dOld != oldStep || dNew != newStep || dOld != int64(resp.Stats.OldNodes) {
			t.Errorf("%s: node totals rose %d/%d, want %d/%d every request",
				step.name, dOld, dNew, oldStep, newStep)
		}
	}
	if m := s.Metrics().Snapshot(); m.Cache.Hits != 2 || m.Cache.Misses != 2 {
		t.Errorf("cache traffic = %d hits / %d misses, want 2/2", m.Cache.Hits, m.Cache.Misses)
	}

	// Batch items and jobs for A are source hits.
	before := parses()
	status, body, _ := postJSON(t, ts, "/v1/diff/batch",
		BatchDiffRequest{Items: []BatchDiffItem{{ID: "a", DiffRequest: a}}})
	var out BatchDiffResponse
	if status != http.StatusOK || json.Unmarshal(body, &out) != nil || len(out.Items) != 1 {
		t.Fatalf("batch status %d: %s", status, body)
	}
	if r := out.Items[0].Response; r == nil || !r.Cached {
		t.Errorf("batch item for a cached pair was not served from cache: %s", body)
	}
	st := submitJob(t, ts, JobSubmitRequest{DiffRequest: a})
	var job JobStatus
	waitFor(t, "job completion", func() bool {
		_, job = jobHTTP(t, ts, http.MethodGet, st.ID)
		return job.Status == "done"
	})
	if job.Response == nil || !job.Response.Cached {
		t.Errorf("job for a cached pair was not served from cache: %+v", job)
	}
	if got := parses(); got != before {
		t.Errorf("batch item and job parsed: phase_us.parse.count %d -> %d", before, got)
	}
}

// TestDiffCacheSourceHitTrace: each lookup records a cache span naming
// the level that answered or missed, and its result. A byte-identical
// repeat shows a body hit, the same documents in another body a source
// hit, neither a parse; a miss, the whitespace variant's included,
// shows the source miss, then the parse, and no other cache span.
func TestDiffCacheSourceHitTrace(t *testing.T) {
	ring := obs.NewRing(8)
	_, ts, done := obsServer(t, Config{DiffCacheEntries: 8}, ring)
	defer done()

	a := DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"}
	aTimed := a
	aTimed.TimeoutMs = 5000
	aSpaced := a
	aSpaced.Old = cacheOldSpaced
	for i, req := range []DiffRequest{a, a, aTimed, aSpaced} {
		data, _ := json.Marshal(req)
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/diff", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Request-Id", fmt.Sprintf("req-%d", i))
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	waitFor(t, "traces retained", func() bool { return ring.Stats().Kept == 4 })

	// spans renders a trace's top-level spans, cache spans with their
	// key and result.
	spans := map[string][]string{}
	for _, tr := range ring.Traces() {
		for _, sp := range tr.Snapshot().Root.Spans {
			line := sp.Name
			if sp.Name == "cache" {
				attrs := map[string]any{}
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				line = fmt.Sprintf("cache %v/%v", attrs["key"], attrs["result"])
			}
			spans[tr.ID] = append(spans[tr.ID], line)
		}
	}
	for id, want := range map[string][]string{
		"req-0": {"cache source/miss", "parse"},
		"req-1": {"cache body/hit"},
		"req-2": {"cache source/hit"},
		"req-3": {"cache source/miss", "parse"},
	} {
		got := spans[id]
		if len(got) > len(want) && want[len(want)-1] == "parse" {
			// A miss goes on to match and generate, with no other lookup.
			for _, line := range got[len(want):] {
				if strings.HasPrefix(line, "cache") {
					t.Errorf("%s: a second cache span after the parse: %q", id, got)
				}
			}
			got = got[:len(want)]
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s spans = %q, want %q", id, got, want)
		}
	}
}

// TestDiffCacheConcurrent storms a capacity-2 cache with six pairs and
// their whitespace variants, so entries are evicted and body keys
// re-pointed constantly. Run under -race. Each pair makes its own edit,
// so a response served for another pair shows: every response must
// give the answer a cacheless server gives for the same request, every
// diff counts one hit or one miss, and afterwards the two indexes
// agree with the entries.
func TestDiffCacheConcurrent(t *testing.T) {
	edits := []func(old string) string{
		func(old string) string { return strings.Replace(old, "second", "changed", 1) },
		func(old string) string { return strings.Replace(old, " A third one follows.", "", 1) },
		func(old string) string {
			return strings.Replace(old, "opens here.", "opens here. A brand new sentence arrives.", 1)
		},
		func(old string) string { return strings.Replace(old, "closing paragraph", "final paragraph", 1) },
		func(old string) string {
			moved := strings.Replace(old, " A third one follows.", "", 1)
			return moved + " A third one follows."
		},
		func(old string) string {
			return strings.Replace(strings.Replace(old, "second", "changed", 1), " A third one follows.", "", 1)
		},
	}
	var reqs []DiffRequest
	for i, edit := range edits {
		old := fmt.Sprintf("Pair %d opens here. It has a second sentence. A third one follows.\n\nA closing paragraph for pair %d.", i, i)
		req := DiffRequest{Old: old, New: edit(old), Format: "text"}
		spaced := req
		spaced.Old = strings.ReplaceAll(old, ". ", ".   ") + "\n"
		reqs = append(reqs, req, spaced)
	}
	_, plain := newTestServer(t, Config{})
	want := make([]string, len(reqs))
	scripts := map[string]int{}
	for i, req := range reqs {
		resp := diffOnce(t, plain, req)
		want[i] = answer(t, resp)
		script, _ := json.Marshal(resp.Script)
		if j, seen := scripts[string(script)]; seen && j != i/2 {
			t.Fatalf("pairs %d and %d have one cacheless script %s", j, i/2, script)
		}
		scripts[string(script)] = i / 2
	}

	const capacity, workers, perWorker = 2, 8, 40
	s, ts := newTestServer(t, Config{DiffCacheEntries: capacity})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(len(reqs))
				status, raw, _ := postJSON(t, ts, "/v1/diff", reqs[k])
				var resp DiffResponse
				if status != http.StatusOK || json.Unmarshal(raw, &resp) != nil {
					t.Errorf("request %d: status %d: %s", k, status, raw)
					return
				}
				if got := answer(t, resp); got != want[k] {
					t.Errorf("request %d (cached=%v) answered\n%s\nwant\n%s", k, resp.Cached, got, want[k])
				}
				if size := s.met.CacheSize.Load(); size > capacity {
					t.Errorf("cache size %d exceeds capacity %d", size, capacity)
				}
			}
		}(w)
	}
	wg.Wait()

	m := s.Metrics().Snapshot()
	if m.DiffsTotal != workers*perWorker || m.Cache.Hits+m.Cache.Misses != m.DiffsTotal {
		t.Errorf("hits %d + misses %d != diffs_total %d (want %d)",
			m.Cache.Hits, m.Cache.Misses, m.DiffsTotal, workers*perWorker)
	}
	if m.Cache.Hits == 0 || m.Cache.Evictions == 0 {
		t.Errorf("storm produced %d hits and %d evictions, want both", m.Cache.Hits, m.Cache.Evictions)
	}

	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.lru.Len(); len(c.bySource) != n || n > capacity {
		t.Errorf("%d source keys index %d entries (capacity %d)", len(c.bySource), n, capacity)
	}
	live := map[*list.Element]bool{}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		live[el] = true
		if c.bySource[el.Value.(*cacheEntry).src] != el {
			t.Error("an entry is not indexed under its source key")
		}
	}
	for bk, el := range c.byBody {
		if !live[el] || el.Value.(*cacheEntry).body != bk {
			t.Errorf("body key %x does not point at the entry that holds it", bk[:4])
		}
	}
}

// postRaw posts body to /v1/diff byte for byte. It reports a transport
// failure with t.Error, so goroutines may call it.
func postRaw(t *testing.T, ts *httptest.Server, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out, resp.Header
}

// marshalDiff encodes req as a /v1/diff body.
func marshalDiff(t *testing.T, req DiffRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// bodyState reports whether the cache indexes body's key, and whether
// the entry it names holds its hit encoding.
func bodyState(s *Server, body []byte) (indexed, encoded bool) {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byBody[sha256.Sum256(body)]
	if !ok {
		return false, false
	}
	return true, el.Value.(*cacheEntry).hitJSON != nil
}

// TestDiffCacheBodyHitMatchesSourceHit: a byte-identical repeat is
// answered at the body level with exactly the bytes and headers a
// source-level hit writes for the same documents, reached here through
// other bodies: the same request with its fields in another order, and
// with a timeout. Each of those takes over the entry's body key, and
// nothing parses after the first request.
func TestDiffCacheBodyHitMatchesSourceHit(t *testing.T) {
	quote := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	for _, c := range []struct{ format, output, old, new string }{
		{"text", "script", cacheOld, cacheNew},
		{"text", "delta", cacheOld, cacheNew},
		{"html", "marked", "<p>First sentence here. Second sentence here.</p><p>A & B.</p>",
			"<p>First sentence here. Second sentence changed.</p><p>A & B.</p>"},
	} {
		s, ts := newTestServer(t, Config{DiffCacheEntries: 8})
		req := DiffRequest{Old: c.old, New: c.new, Format: c.format, Output: c.output}
		first := marshalDiff(t, req)
		reordered := []byte(fmt.Sprintf(`{"output":%q,"new":%s,"format":%q,"old":%s}`,
			c.output, quote(c.new), c.format, quote(c.old)))
		req.TimeoutMs = 5000
		timed := marshalDiff(t, req)

		if status, raw, _ := postRaw(t, ts, first); status != http.StatusOK {
			t.Fatalf("%s/%s: first request: status %d: %s", c.format, c.output, status, raw)
		}
		if indexed, _ := bodyState(s, first); !indexed {
			t.Fatalf("%s/%s: the stored entry did not learn the request's body key", c.format, c.output)
		}
		_, want, wantHdr := postRaw(t, ts, first)
		if !bytes.Contains(want, []byte(`"cached":true`)) {
			t.Fatalf("%s/%s: repeat was not a cache hit: %s", c.format, c.output, want)
		}
		for _, body := range [][]byte{reordered, timed, timed} {
			status, got, hdr := postRaw(t, ts, body)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s/%s: %s answered %d\n%s\nwant the body-level hit's\n%s", c.format, c.output, body, status, got, want)
			}
			for _, h := range []string{"Content-Type", "Content-Length"} {
				if hdr.Get(h) != wantHdr.Get(h) {
					t.Errorf("%s/%s: %s = %q, body-level hit sent %q", c.format, c.output, h, hdr.Get(h), wantHdr.Get(h))
				}
			}
			if indexed, _ := bodyState(s, body); !indexed {
				t.Errorf("%s/%s: %s did not take over the entry's body key", c.format, c.output, body)
			}
		}
		if indexed, _ := bodyState(s, first); indexed {
			t.Errorf("%s/%s: an entry holds two body keys", c.format, c.output)
		}
		m := s.Metrics().Snapshot()
		if m.PhaseUS["parse"].Count != 1 || m.Cache.Hits != 4 || m.Cache.Misses != 1 || m.DiffsTotal != 5 {
			t.Errorf("%s/%s: %d parses, %d hits, %d misses, %d diffs; want 1, 4, 1, 5",
				c.format, c.output, m.PhaseUS["parse"].Count, m.Cache.Hits, m.Cache.Misses, m.DiffsTotal)
		}
	}
}

// TestDiffCacheBodyKeyDropped: eviction drops an entry's body key with
// the entry, and a put that replaces an entry's response drops the body
// key and the encoding, so no body-level hit replays the old response.
func TestDiffCacheBodyKeyDropped(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 1})
	a := marshalDiff(t, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"})
	b := marshalDiff(t, DiffRequest{Old: "Entirely different text.", New: "Entirely different words.", Format: "text"})
	post := func(body []byte) DiffResponse {
		t.Helper()
		status, raw, _ := postRaw(t, ts, body)
		var resp DiffResponse
		if status != http.StatusOK || json.Unmarshal(raw, &resp) != nil {
			t.Fatalf("status %d: %s", status, raw)
		}
		return resp
	}

	post(a)
	post(a)
	if indexed, encoded := bodyState(s, a); !indexed || !encoded {
		t.Fatalf("after a body-level hit: indexed %v, encoded %v; want both", indexed, encoded)
	}
	post(b) // evicts a's entry
	if indexed, _ := bodyState(s, a); indexed {
		t.Error("an evicted entry's body key is still indexed")
	}
	if resp := post(a); resp.Cached {
		t.Error("a body whose entry was evicted was answered from the cache")
	}

	// A put over the resident source key, as a concurrent miss of the
	// same pair makes, replaces the response.
	post(a)
	c := s.cache
	c.mu.Lock()
	e := c.byBody[sha256.Sum256(a)].Value.(*cacheEntry)
	replacement := e.resp
	replacement.Stats.PhaseMicros = map[string]int64{"parse": 424242}
	src := e.src
	c.mu.Unlock()
	c.put(src, bodyKey{}, replacement)
	if indexed, _ := bodyState(s, a); indexed {
		t.Error("a replaced response's body key is still indexed")
	}
	c.mu.Lock()
	e = c.bySource[src].Value.(*cacheEntry)
	if e.hitJSON != nil || e.body != (bodyKey{}) {
		t.Error("the replacing entry kept the old body key or encoding")
	}
	c.mu.Unlock()
	// The next request for a reaches the new entry at the source level
	// and teaches it a's body key; the body-level hit after it encodes
	// the new response.
	if resp := post(a); !resp.Cached || resp.Stats.PhaseMicros["parse"] != 424242 {
		t.Errorf("source-level hit after the replace: cached %v, stats %+v", resp.Cached, resp.Stats)
	}
	if indexed, encoded := bodyState(s, a); !indexed || encoded {
		t.Errorf("after a source-level hit: indexed %v, encoded %v; want indexed only", indexed, encoded)
	}
	if resp := post(a); !resp.Cached || resp.Stats.PhaseMicros["parse"] != 424242 {
		t.Errorf("body-level hit after the replace: cached %v, stats %+v", resp.Cached, resp.Stats)
	}
}

// TestDiffCacheBodyHitAdmission: a body-level hit takes a slot like any
// request. With the only slot held and the queue full, a byte-identical
// repeat is shed with 429 and counts no hit; the admitted repeats count
// theirs only once they hold a slot.
func TestDiffCacheBodyHitAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 8, MaxConcurrent: 1, MaxQueue: 1})
	body := marshalDiff(t, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"})
	if status, raw, _ := postRaw(t, ts, body); status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, raw)
	}
	// The gate may only be installed once no handler is left to read it.
	waitFor(t, "first request retired", func() bool { return s.Metrics().InFlight.Load() == 0 })
	open := installGate(t, s)

	results := make(chan int, 2)
	post := func() {
		status, _, _ := postRaw(t, ts, body)
		results <- status
	}
	go post()
	waitFor(t, "repeat in flight", func() bool { return s.Metrics().InFlight.Load() == 1 })
	go post()
	waitFor(t, "repeat queued", func() bool { return s.Metrics().Queued.Load() == 1 })

	status, raw, hdr := postRaw(t, ts, body)
	var envelope errorBody
	if status != http.StatusTooManyRequests || json.Unmarshal(raw, &envelope) != nil || envelope.Error.Code != "queue_full" {
		t.Errorf("repeat past a full queue: status %d %s, want 429 queue_full", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if m := s.Metrics().Snapshot(); m.Cache.Hits != 0 {
		t.Errorf("cache hits = %d with both repeats held before the gate, want 0", m.Cache.Hits)
	}

	open()
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("held repeat %d: status %d, want 200", i, status)
		}
	}
	m := s.Metrics().Snapshot()
	if m.Cache.Hits != 2 || m.Cache.Misses != 1 || m.DiffsTotal != 3 || m.RejectedQueueTotal != 1 {
		t.Errorf("%d hits, %d misses, %d diffs, %d shed; want 2, 1, 3, 1",
			m.Cache.Hits, m.Cache.Misses, m.DiffsTotal, m.RejectedQueueTotal)
	}
}

// TestDiffCacheBodyHitWriteFault: an injected response-write failure on
// a body-level hit answers 500, and the hit still counts once, so
// cache.hits + cache.misses == diffs_total.
func TestDiffCacheBodyHitWriteFault(t *testing.T) {
	s, ts := newTestServer(t, Config{DiffCacheEntries: 8})
	body := marshalDiff(t, DiffRequest{Old: cacheOld, New: cacheNew, Format: "text"})
	if status, raw, _ := postRaw(t, ts, body); status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, raw)
	}
	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{{Point: fault.ServerWrite, Mode: fault.ModeError}}})
	status, raw, _ := postRaw(t, ts, body)
	deactivate()
	var envelope errorBody
	if status != http.StatusInternalServerError || json.Unmarshal(raw, &envelope) != nil || envelope.Error.Code != "internal" {
		t.Errorf("body-level hit under a write fault: status %d %s, want 500 internal", status, raw)
	}
	if status, raw, _ := postRaw(t, ts, body); status != http.StatusOK || !bytes.Contains(raw, []byte(`"cached":true`)) {
		t.Errorf("repeat after the fault: status %d %s, want a 200 hit", status, raw)
	}
	m := s.Metrics().Snapshot()
	if m.Cache.Hits != 2 || m.Cache.Misses != 1 || m.Cache.Hits+m.Cache.Misses != m.DiffsTotal {
		t.Errorf("%d hits + %d misses, %d diffs_total; want 2 + 1 = 3", m.Cache.Hits, m.Cache.Misses, m.DiffsTotal)
	}
}

// TestSourceDigest: the length prefixes keep the split between the two
// documents in the digest, and hashing copies neither document.
func TestSourceDigest(t *testing.T) {
	if sourceDigest("ab", "c") == sourceDigest("a", "bc") {
		t.Error("moving a byte across the old/new split kept the digest")
	}
	if sourceDigest(cacheOld, cacheNew) != sourceDigest(cacheOld, cacheNew) {
		t.Error("digest is not deterministic")
	}
	big := strings.Repeat(cacheOld, 100)
	if n := testing.AllocsPerRun(100, func() { sourceDigest(big, big) }); n != 0 {
		t.Errorf("sourceDigest allocates %.0f times per call, want 0", n)
	}
}

// FuzzDiffCache drives a diffCache of capacity 2 or 3 with the calls the
// server makes — getBody, setHitJSON, getSource and put — over four
// source keys and eight bodies, each body belonging to one source as a
// real body decodes to one request, and checks the cache after every
// call against a model: the LRU order of the sources, the latest
// response stored for each, and each entry's current body key.
func FuzzDiffCache(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 7, 4, 11, 15, 1, 8, 19, 23, 27, 3, 0, 2, 6})
	f.Add([]byte{1, 3, 7, 11, 15, 19, 2, 6, 10, 14, 0, 4, 8, 12, 1, 5, 9, 13})
	f.Add([]byte{0, 3, 35, 0, 1, 3, 0, 1, 3, 7, 4, 5, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 256 {
			return
		}
		const sources, bodies = 4, 8
		capacity := 2 + int(ops[0]%2)
		met := &Metrics{}
		c := newDiffCache(capacity, met)
		srcKey := func(i int) sourceKey { return sourceKey{digest: [sha256.Size]byte{byte(i + 1)}} }
		// Body j belongs to source j%sources; -1 is the zero key of a
		// batch item or job.
		bodyOf := func(j int) bodyKey {
			if j < 0 {
				return bodyKey{}
			}
			return bodyKey{byte(j + 1)}
		}
		// pick names one of source i's two bodies by n, or the zero key
		// when n%3 == 0.
		pick := func(i, n int) int {
			if n%3 == 0 {
				return -1
			}
			return i + sources*(n%3-1)
		}

		type modelEntry struct{ src, version, body int }
		var lru []modelEntry // front first
		var misses, evictions int64
		version := 0
		find := func(src int) int {
			for i, e := range lru {
				if e.src == src {
					return i
				}
			}
			return -1
		}
		touch := func(i int) { e := lru[i]; lru = append(append([]modelEntry{e}, lru[:i]...), lru[i+1:]...) }
		resp := func(src, version int) DiffResponse {
			return DiffResponse{Format: fmt.Sprint("source ", src), Stats: DiffStats{Ops: version}}
		}
		var pending []*cacheEntry // body hits still to memoize their encoding

		for n, op := range ops[1:] {
			arg := int(op >> 2)
			switch op & 3 {
			case 0: // getBody
				j := arg % bodies
				src := j % sources
				e, hitJSON, ok := c.getBody(bodyOf(j))
				i := find(src)
				want := i >= 0 && lru[i].body == j
				if ok != want {
					t.Fatalf("op %d: getBody(%d) hit %v, model %v", n, j, ok, want)
				}
				if !ok {
					break
				}
				w := resp(src, lru[i].version)
				if e.resp.Format != w.Format || e.resp.Stats.Ops != w.Stats.Ops {
					t.Fatalf("op %d: getBody(%d) = %s v%d, want %s v%d", n, j, e.resp.Format, e.resp.Stats.Ops, w.Format, w.Stats.Ops)
				}
				if hitJSON != nil && !bytes.Equal(hitJSON, encodeHit(w)) {
					t.Fatalf("op %d: getBody(%d) encoding %s does not encode the entry's response", n, j, hitJSON)
				}
				if hitJSON == nil {
					pending = append(pending, e)
				}
				touch(i)
			case 1: // setHitJSON, perhaps for an entry since replaced or evicted
				if len(pending) == 0 {
					break
				}
				k := arg % len(pending)
				e := pending[k]
				pending = append(pending[:k], pending[k+1:]...)
				c.setHitJSON(e, encodeHit(e.resp))
			case 2: // getSource
				src := arg % sources
				j := pick(src, arg/sources)
				got, ok := c.getSource(srcKey(src), bodyOf(j))
				i := find(src)
				if ok != (i >= 0) {
					t.Fatalf("op %d: getSource(%d) hit %v, model %v", n, src, ok, i >= 0)
				}
				if !ok {
					misses++
					break
				}
				if w := resp(src, lru[i].version); got.Format != w.Format || got.Stats.Ops != w.Stats.Ops {
					t.Fatalf("op %d: getSource(%d) = %s v%d, want %s v%d", n, src, got.Format, got.Stats.Ops, w.Format, w.Stats.Ops)
				}
				if j >= 0 {
					lru[i].body = j
				}
				touch(i)
			case 3: // put, over a stored source key or not
				src := arg % sources
				j := pick(src, arg/sources)
				version++
				c.put(srcKey(src), bodyOf(j), resp(src, version))
				if i := find(src); i >= 0 {
					lru[i] = modelEntry{src, version, j}
					touch(i)
					break
				}
				lru = append([]modelEntry{{src, version, j}}, lru...)
				if len(lru) > capacity {
					lru = lru[:capacity]
					evictions++
				}
			}

			if c.lru.Len() > c.max || len(c.bySource) != c.lru.Len() {
				t.Fatalf("op %d: %d entries, %d source keys, capacity %d", n, c.lru.Len(), len(c.bySource), c.max)
			}
			if met.CacheMisses.Load() != misses || met.CacheEvictions.Load() != evictions {
				t.Fatalf("op %d: %d misses, %d evictions; model %d, %d",
					n, met.CacheMisses.Load(), met.CacheEvictions.Load(), misses, evictions)
			}
			if size := met.CacheSize.Load(); size != int64(len(lru)) {
				t.Fatalf("op %d: cache size %d, model %d", n, size, len(lru))
			}
			el := c.lru.Front()
			indexed := 0
			for i, m := range lru {
				if el == nil {
					t.Fatalf("op %d: %d entries, model %d", n, i, len(lru))
				}
				e := el.Value.(*cacheEntry)
				if e.src != srcKey(m.src) || e.body != bodyOf(m.body) || e.resp.Stats.Ops != m.version {
					t.Fatalf("op %d: entry %d holds v%d with body %x; model source %d v%d body %d",
						n, i, e.resp.Stats.Ops, e.body[:1], m.src, m.version, m.body)
				}
				if e.hitJSON != nil && !bytes.Equal(e.hitJSON, encodeHit(resp(m.src, m.version))) {
					t.Fatalf("op %d: entry %d's encoding %s is not of its response", n, i, e.hitJSON)
				}
				if m.body >= 0 {
					indexed++
					if c.byBody[e.body] != el {
						t.Fatalf("op %d: body %d is not indexed at its entry", n, m.body)
					}
				}
				el = el.Next()
			}
			if el != nil || len(c.byBody) != indexed {
				t.Fatalf("op %d: %d entries, %d body keys; model %d, %d", n, c.lru.Len(), len(c.byBody), len(lru), indexed)
			}
		}
	})
}

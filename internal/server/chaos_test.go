package server

import (
	"bytes"
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

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/testleak"
)

// The chaos suite drives the server under injected faults — panics,
// errors, delays, cancellations, slow and truncated reads — and pins
// the failure model's core promises: no panic escapes the process, no
// goroutine outlives its request, metrics stay coherent with what
// clients observed, and degraded responses are still correct.
//
// Every test runs under the race detector in CI; the injection plans
// are seeded, so a failure replays deterministically (modulo goroutine
// interleaving, which is the point of running the suite under -race).

// chaosServer builds a leak-checked server whose lifetime ends before
// the leak sweep (defers run LIFO, so register the check first).
func chaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	leak := testleak.Check(t)
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		leak()
	}
}

// storm posts reqs concurrently on workers goroutines and returns a
// count of responses per HTTP status.
func storm(t *testing.T, ts *httptest.Server, workers, perWorker int, req DiffRequest) map[int]int {
	t.Helper()
	var (
		mu       sync.Mutex
		statuses = make(map[int]int)
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				status, body, _ := postJSON(t, ts, "/v1/diff", req)
				// Every response, even a failure injected mid-write, must
				// be a well-formed JSON document.
				if !json.Valid(body) {
					t.Errorf("status %d carried invalid JSON body: %q", status, body)
				}
				mu.Lock()
				statuses[status]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return statuses
}

// TestChaosEngineFaultStorm arms probabilistic faults at every
// pre-response pipeline point — parse, match, generate, index, request
// read — mixing errors, panics, and cancellations, then hammers the
// server concurrently. Each request must land in exactly one outcome
// counter, so the storm pins metrics coherence exactly, not
// approximately.
func TestChaosEngineFaultStorm(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	deactivate := fault.Activate(fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Point: fault.ParseText, Mode: fault.ModeError, P: 0.2},
		{Point: fault.ParseText, Mode: fault.ModePanic, P: 0.1},
		{Point: fault.Match, Mode: fault.ModeError, P: 0.2},
		{Point: fault.Match, Mode: fault.ModePanic, P: 0.1},
		{Point: fault.Match, Mode: fault.ModeCancel, P: 0.1},
		{Point: fault.Generate, Mode: fault.ModeError, P: 0.1},
		{Point: fault.GenIndex, Mode: fault.ModeError, P: 0.2},
	}})
	defer deactivate()

	const workers, perWorker = 8, 25
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	statuses := storm(t, ts, workers, perWorker, req)
	deactivate()

	total := 0
	for status, n := range statuses {
		switch status {
		case http.StatusOK, http.StatusBadRequest, http.StatusInternalServerError,
			http.StatusGatewayTimeout, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d (%d times)", status, n)
		}
		total += n
	}
	if total != workers*perWorker {
		t.Fatalf("got %d responses, want %d", total, workers*perWorker)
	}

	snap := s.Metrics().Snapshot()
	if snap.RequestsTotal != workers*perWorker {
		t.Errorf("requests_total = %d, want %d", snap.RequestsTotal, workers*perWorker)
	}
	// Exactly-once outcome accounting: every request is a success, a
	// parse rejection, a pipeline failure, a timeout, or a contained
	// panic — never two of those, never zero.
	outcomes := snap.DiffsTotal + snap.BadRequestsTotal + snap.ErrorsTotal +
		snap.TimeoutsTotal + snap.PanicsTotal
	if outcomes != int64(workers*perWorker) {
		t.Errorf("outcome counters sum to %d, want %d (diffs=%d bad=%d errors=%d timeouts=%d panics=%d)",
			outcomes, workers*perWorker, snap.DiffsTotal, snap.BadRequestsTotal,
			snap.ErrorsTotal, snap.TimeoutsTotal, snap.PanicsTotal)
	}
	if snap.DiffsTotal != int64(statuses[http.StatusOK]) {
		t.Errorf("diffs_total = %d, want %d (the 200 count)", snap.DiffsTotal, statuses[http.StatusOK])
	}
	if snap.PanicsTotal == 0 {
		t.Error("panics_total = 0; the injected parse panics never reached the containment layer")
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after the storm, want 0", snap.InFlight)
	}

	// The chaos is gone with the plan: the same request now succeeds.
	if status, body, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Errorf("post-chaos request: status %d, want 200: %s", status, body)
	}
}

// TestChaosWritePathPanics injects panics into the response-write path
// itself — past every engine recovery layer — and checks the
// middleware contains all of them.
func TestChaosWritePathPanics(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	deactivate := fault.Activate(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Point: fault.ServerWrite, Mode: fault.ModePanic},
	}})
	defer deactivate()

	const n = 20
	req := DiffRequest{Old: diffPairs["json"][0], New: diffPairs["json"][1], Format: "json"}
	storm(t, ts, 4, n/4, req)
	deactivate()

	if got := s.Metrics().Panics.Load(); got != n {
		t.Errorf("panics_total = %d, want %d (every write panicked)", got, n)
	}
	if status, body, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Errorf("post-chaos request: status %d, want 200: %s", status, body)
	}
}

// TestChaosSlowAndTruncatedReads runs the body-read faults: a slow-
// loris read pace and mid-body truncation. Both must fail the request
// cleanly and leave the server serving.
func TestChaosSlowAndTruncatedReads(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()
	req := DiffRequest{Old: diffPairs["xml"][0], New: diffPairs["xml"][1], Format: "xml"}

	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.ServerRead, Mode: fault.ModeTruncate, Bytes: 10},
	}})
	if status, _, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", status)
	}
	deactivate()

	deactivate = fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.ServerRead, Mode: fault.ModeSlowRead, Delay: time.Microsecond},
	}})
	// Slow reads still complete — the request succeeds, just slowly.
	if status, body, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Errorf("slow-read body: status %d, want 200: %s", status, body)
	}
	deactivate()

	if status, _, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusOK {
		t.Error("server unhealthy after read-fault chaos")
	}
	if got := s.Metrics().BadRequests.Load(); got != 1 {
		t.Errorf("bad_requests_total = %d, want 1 (the truncated body)", got)
	}
}

// TestChaosDeadlineStorm injects a delay at the match entry longer
// than the request deadline: every request must time out as a clean
// 504, observable in timeouts_total, with nothing left in flight.
func TestChaosDeadlineStorm(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.Match, Mode: fault.ModeDelay, Delay: 50 * time.Millisecond},
	}})
	defer deactivate()

	const n = 8
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1],
		Format: "text", TimeoutMs: 1}
	statuses := storm(t, ts, 4, n/4, req)
	deactivate()

	if statuses[http.StatusGatewayTimeout] != n {
		t.Errorf("statuses = %v, want %d×504", statuses, n)
	}
	if got := s.Metrics().Timeouts.Load(); got != n {
		t.Errorf("timeouts_total = %d, want %d", got, n)
	}
	if got := s.Metrics().InFlight.Load(); got != 0 {
		t.Errorf("in_flight = %d after the storm, want 0", got)
	}
}

// TestChaosDegradedBudgetFallback starves the match work budget so
// every "simple" request falls back to FastMatch — and proves the
// degraded mode's contract: the response is still a correct edit
// script (applying it to T1 yields a tree isomorphic to T2), the
// degradation is visible in the response body, and degraded_total
// counts it.
func TestChaosDegradedBudgetFallback(t *testing.T) {
	s, ts, done := chaosServer(t, Config{MatchWorkBudget: 1})
	defer done()

	pair := diffPairs["tree"]
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: pair[0], New: pair[1], Format: "tree", Matcher: "simple",
	})
	if status != http.StatusOK {
		t.Fatalf("budget-starved diff: status %d, want 200 (degraded): %s", status, body)
	}
	var resp DiffResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.DegradedReasons) == 0 {
		t.Fatalf("response not marked degraded: %s", body)
	}

	// The degraded script is still the real thing: T1 + script ≅ T2.
	oldT, err := ladiff.ParseTree(pair[0])
	if err != nil {
		t.Fatal(err)
	}
	newT, err := ladiff.ParseTree(pair[1])
	if err != nil {
		t.Fatal(err)
	}
	patched, err := resp.Script.ApplyTo(oldT)
	if err != nil {
		t.Fatalf("applying degraded script: %v", err)
	}
	if !ladiff.Isomorphic(patched, newT) {
		t.Error("degraded script does not transform T1 into T2")
	}

	if got := s.Metrics().Degraded.Load(); got != 1 {
		t.Errorf("degraded_total = %d, want 1", got)
	}

	// An explicit fast request under the same starved budget fails hard
	// (there is no cheaper mode left) with the over-budget envelope.
	status, body, hdr := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: pair[0], New: pair[1], Format: "tree", Matcher: "fast",
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("budget-starved fastmatch: status %d, want 503: %s", status, body)
	}
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "over_budget" {
		t.Errorf("envelope = %s, want code over_budget", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("over-budget 503 missing Retry-After")
	}
}

// TestChaosDegradedZSBudgetFallback starves the work budget under
// the optimal "zs" engine: its quadratic pre-gate must trip before
// any DP work happens, and the core fallback ladder must answer with
// an unbudgeted FastMatch run — 200, marked degraded with a reason
// naming the engine, script still correct, degraded_total counting it.
func TestChaosDegradedZSBudgetFallback(t *testing.T) {
	s, ts, done := chaosServer(t, Config{MatchWorkBudget: 1})
	defer done()

	pair := diffPairs["tree"]
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: pair[0], New: pair[1], Format: "tree", Matcher: "zs",
	})
	if status != http.StatusOK {
		t.Fatalf("budget-starved zs diff: status %d, want 200 (degraded): %s", status, body)
	}
	var resp DiffResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.DegradedReasons) == 0 {
		t.Fatalf("response not marked degraded: %s", body)
	}
	// The reason must tell the operator WHICH engine gave up, so a
	// misbehaving -engine default is diagnosable from response bodies.
	found := false
	for _, r := range resp.DegradedReasons {
		if strings.Contains(r, "zs exceeded") && strings.Contains(r, "fastmatch") {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded reasons %v do not name the zs→fastmatch ladder", resp.DegradedReasons)
	}

	oldT, err := ladiff.ParseTree(pair[0])
	if err != nil {
		t.Fatal(err)
	}
	newT, err := ladiff.ParseTree(pair[1])
	if err != nil {
		t.Fatal(err)
	}
	patched, err := resp.Script.ApplyTo(oldT)
	if err != nil {
		t.Fatalf("applying degraded script: %v", err)
	}
	if !ladiff.Isomorphic(patched, newT) {
		t.Error("degraded script does not transform T1 into T2")
	}
	if got := s.Metrics().Degraded.Load(); got != 1 {
		t.Errorf("degraded_total = %d, want 1", got)
	}
	// The wire format too: the degradation must surface on GET /metrics,
	// where a dashboard (not a test with a *Server handle) reads it.
	var snap MetricsSnapshot
	if st := getJSON(t, ts, "/metrics", &snap); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if snap.DegradedTotal != 1 {
		t.Errorf("degraded_total = %d on /metrics, want 1", snap.DegradedTotal)
	}

	// Same request with an ample budget: no degradation, and the optimal
	// engine's script must not cost more than the degraded one.
	s2, ts2, done2 := chaosServer(t, Config{MatchWorkBudget: 1 << 20})
	defer done2()
	status, body, _ = postJSON(t, ts2, "/v1/diff", DiffRequest{
		Old: pair[0], New: pair[1], Format: "tree", Matcher: "zs",
	})
	if status != http.StatusOK {
		t.Fatalf("budgeted zs diff: status %d: %s", status, body)
	}
	var full DiffResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded || len(full.DegradedReasons) != 0 {
		t.Errorf("ample-budget zs run degraded: %v", full.DegradedReasons)
	}
	if got := s2.Metrics().Degraded.Load(); got != 0 {
		t.Errorf("degraded_total = %d on the ample-budget server, want 0", got)
	}
	if len(full.Script) > len(resp.Script) {
		t.Errorf("optimal engine produced %d ops, degraded fallback %d", len(full.Script), len(resp.Script))
	}
}

// TestChaosZSDeadline: the zs engine polls the request context, so a
// zigzag pair that needs most of a second of DP answers 504 soon after
// its 100 ms timeout instead of at generation, and frees its slot.
func TestChaosZSDeadline(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	zigzag := func(edit int) string {
		tr := ladiff.NewTreeWithRoot("s", "")
		spine := tr.Root()
		for d := 0; d < 120; d++ {
			v := fmt.Sprint("leaf ", d)
			if d == edit {
				v += " edited"
			}
			if d%2 == 0 {
				tr.AppendChild(spine, "l", v)
				spine = tr.AppendChild(spine, "s", "")
			} else {
				next := tr.AppendChild(spine, "s", "")
				tr.AppendChild(spine, "l", v)
				spine = next
			}
		}
		return tr.String()
	}
	start := time.Now()
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: zigzag(-1), New: zigzag(60), Format: "tree", Matcher: "zs", TimeoutMs: 100,
	})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", status, body)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("504 after %v, want soon after the 100ms timeout", elapsed)
	}
	if got := s.Metrics().InFlight.Load(); got != 0 {
		t.Errorf("in_flight = %d after the timeout, want 0", got)
	}
}

// TestChaosZSTableBound: the default work budget of 0 turns the
// quadratic pre-gate off, yet a zs request whose table would pass 2^26
// cells (two 8193-node trees) must still answer 200, degraded to
// FastMatch, with a reason naming the table bound.
func TestChaosZSTableBound(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	star := func(edit int) string {
		var b strings.Builder
		b.WriteString("doc\n")
		for i := 0; i < 8192; i++ {
			fmt.Fprintf(&b, "  s \"sentence %d", i)
			if i == edit {
				b.WriteString(" edited")
			}
			b.WriteString("\"\n")
		}
		return b.String()
	}
	status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
		Old: star(-1), New: star(4000), Format: "tree", Matcher: "zs",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded): %.200s", status, body)
	}
	var resp DiffResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.DegradedReasons) != 1 ||
		!strings.Contains(resp.DegradedReasons[0], fmt.Sprint(1<<26)) ||
		!strings.Contains(resp.DegradedReasons[0], "fell back to fastmatch") {
		t.Fatalf("degraded = %v, reasons %q: want one naming the table bound", resp.Degraded, resp.DegradedReasons)
	}
	if got := s.Metrics().Degraded.Load(); got != 1 {
		t.Errorf("degraded_total = %d, want 1", got)
	}
}

// TestChaosDegradedGenFallback breaks the generation index with a
// probabilistic fault: requests where the indexed path fails must
// still answer 200 via the scan generator, marked degraded, with a
// script that really produces T2.
func TestChaosDegradedGenFallback(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	deactivate := fault.Activate(fault.Plan{Seed: 99, Rules: []fault.Rule{
		{Point: fault.GenIndex, Mode: fault.ModeError, P: 0.5},
	}})
	defer deactivate()

	pair := diffPairs["tree"]
	oldT, err := ladiff.ParseTree(pair[0])
	if err != nil {
		t.Fatal(err)
	}
	newT, err := ladiff.ParseTree(pair[1])
	if err != nil {
		t.Fatal(err)
	}

	degraded := 0
	const n = 20
	for i := 0; i < n; i++ {
		status, body, _ := postJSON(t, ts, "/v1/diff", DiffRequest{
			Old: pair[0], New: pair[1], Format: "tree",
		})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var resp DiffResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			degraded++
		}
		patched, err := resp.Script.ApplyTo(oldT)
		if err != nil {
			t.Fatalf("request %d (degraded=%v): applying script: %v", i, resp.Degraded, err)
		}
		if !ladiff.Isomorphic(patched, newT) {
			t.Fatalf("request %d (degraded=%v): script does not produce T2", i, resp.Degraded)
		}
	}
	deactivate()
	if degraded == 0 {
		t.Error("no request hit the scan-generator fallback despite a 50% index fault")
	}
	if got := s.Metrics().Degraded.Load(); got != int64(degraded) {
		t.Errorf("degraded_total = %d, want %d", got, degraded)
	}
}

// TestChaosMidRequestDisconnect drops client connections mid-request
// (the client walks away during a gated handler) and checks the server
// neither panics nor leaks the abandoned handler goroutines.
func TestChaosMidRequestDisconnect(t *testing.T) {
	s, ts, done := chaosServer(t, Config{MaxConcurrent: 2})
	defer done()
	s.testGate = make(chan struct{})

	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/diff",
				bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			hr.Header.Set("Content-Type", "application/json")
			// A dedicated client per request so closing its connections
			// severs exactly this request.
			c := &http.Client{Timeout: 100 * time.Millisecond}
			resp, err := c.Do(hr)
			if err == nil {
				resp.Body.Close()
			}
			c.CloseIdleConnections()
		}()
	}
	wg.Wait()
	// Handlers are still parked on the gate (or queued); release them
	// and let them discover their clients are gone.
	waitFor(t, "requests admitted", func() bool {
		return s.Metrics().InFlight.Load()+s.Metrics().Queued.Load() > 0 ||
			s.Metrics().Requests.Load() >= n
	})
	close(s.testGate)
	waitFor(t, "handlers unwound", func() bool { return s.Metrics().InFlight.Load() == 0 })

	if got := s.Metrics().Panics.Load(); got != 0 {
		t.Errorf("panics_total = %d after disconnects, want 0", got)
	}
	// The leak check in chaosServer's done() asserts the abandoned
	// handlers actually exited.
}

// TestChaosFaultHitAccounting cross-checks the injector's own ledger:
// the number of faults fired must match what the metrics absorbed, so
// a fault can never vanish without a trace.
func TestChaosFaultHitAccounting(t *testing.T) {
	s, ts, done := chaosServer(t, Config{})
	defer done()

	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.Match, Mode: fault.ModeError},
	}})
	defer deactivate()

	const n = 10
	req := DiffRequest{Old: diffPairs["text"][0], New: diffPairs["text"][1], Format: "text"}
	for i := 0; i < n; i++ {
		if status, _, _ := postJSON(t, ts, "/v1/diff", req); status != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, status)
		}
	}
	hits := fault.Hits()
	if hits[fault.Match] != n {
		t.Errorf("injector fired %d times at %s, want %d", hits[fault.Match], fault.Match, n)
	}
	if got := s.Metrics().Errors.Load(); got != n {
		t.Errorf("errors_total = %d, want %d: every injected fault must surface in metrics", got, n)
	}
}

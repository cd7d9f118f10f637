package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"ladiff"
	"ladiff/internal/edit"
	"ladiff/internal/fault"
	"ladiff/internal/lderr"
	"ladiff/internal/obs"
	"ladiff/internal/sched"
	"ladiff/internal/store"
)

// DiffRequest is the body of POST /v1/diff.
type DiffRequest struct {
	// Old and New are the two document versions, as source text in
	// Format's syntax.
	Old string `json:"old"`
	New string `json:"new"`
	// Format selects the parser front end; see store.Formats.
	Format string `json:"format"`
	// Output selects the render back end; see Outputs. Empty means
	// "script".
	Output string `json:"output,omitempty"`
	// LeafThreshold and InternalThreshold override the paper's f and t
	// matching thresholds; zero keeps the defaults.
	LeafThreshold     float64 `json:"leafThreshold,omitempty"`
	InternalThreshold float64 `json:"internalThreshold,omitempty"`
	// Matcher selects the matching engine: "fast" (the default, unless
	// the server is configured with another DefaultEngine), "simple"
	// (the quadratic Match), or "zs" (Zhang–Shasha best matching).
	// Non-"fast" requests that exhaust a configured match work budget,
	// or "zs" requests past its table bound, fall back to "fast" and
	// the response is marked degraded.
	Matcher string `json:"matcher,omitempty"`
	// Prune opts this request into the fingerprint ladder: the Merkle
	// identical-subtree pruning pass before the label rounds and the
	// root-hash short circuit for unchanged documents. The script is
	// still verified end to end; only untouched regions skip the
	// matching criteria. Implied for every request when the server is
	// configured with PruneIdentical.
	Prune bool `json:"prune,omitempty"`
	// TimeoutMs bounds this request's processing time; zero means the
	// server default, and values above the server maximum are clamped.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// DiffStats summarizes one diff for the response.
type DiffStats struct {
	OldNodes int     `json:"oldNodes"`
	NewNodes int     `json:"newNodes"`
	Matched  int     `json:"matched"`
	Ops      int     `json:"ops"`
	Cost     float64 `json:"cost"`
	// PhaseMicros reports the wall time of each completed phase.
	PhaseMicros map[string]int64 `json:"phaseMicros"`
}

// DiffResponse is the body of a successful POST /v1/diff. Exactly one
// of Script, Delta, Document is populated, per the requested output.
type DiffResponse struct {
	Format   string          `json:"format"`
	Output   string          `json:"output"`
	Script   ladiff.Script   `json:"script,omitempty"`
	Delta    json.RawMessage `json:"delta,omitempty"`
	Document string          `json:"document,omitempty"`
	Stats    DiffStats       `json:"stats"`
	// Degraded reports that the result was produced in a degraded mode
	// (budget fallback to FastMatch, or the scan generator after an
	// indexed-path failure); the script is still verified isomorphic to
	// the new document. DegradedReasons says what was given up.
	Degraded        bool     `json:"degraded,omitempty"`
	DegradedReasons []string `json:"degradedReasons,omitempty"`
	// Cached reports that the response was served from the diff cache:
	// the request repeated the bytes of both documents under the same
	// options, so nothing was parsed, matched, generated or rendered;
	// Stats then describe the original computation, not this request.
	Cached bool `json:"cached,omitempty"`
}

// PatchRequest is the body of POST /v1/patch: apply Script to Base
// (invert=false), or compute and verify the inverse script
// (invert=true).
type PatchRequest struct {
	Base      string        `json:"base"`
	Format    string        `json:"format"`
	Script    ladiff.Script `json:"script"`
	Invert    bool          `json:"invert,omitempty"`
	TimeoutMs int           `json:"timeoutMs,omitempty"`
}

// PatchResponse is the body of a successful POST /v1/patch. For apply,
// Document is the patched base. For invert, Script is the inverse and
// Document is the base after the round trip apply(script);
// apply(inverse) — returned as proof the inverse really reverts.
type PatchResponse struct {
	Format   string        `json:"format"`
	Document string        `json:"document"`
	Script   ladiff.Script `json:"script,omitempty"`
}

// errorBody is the uniform error envelope: {"error":{"code","message"}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ItemError is the one failure envelope: every refusal and failure —
// of a whole request, a batch item or an async job — is built as one,
// and writeItemError writes it as a response. A batch item or job
// carries the status, code and message the same request would have
// failed with on /v1/diff.
type ItemError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *ItemError) Error() string { return e.Code + ": " + e.Message }

func writeJSON(w http.ResponseWriter, status int, v any) {
	if writeHeader(w, status) {
		_ = json.NewEncoder(w).Encode(v)
	}
}

// writeEncoded is writeJSON for a body already encoded as writeJSON
// encodes it.
func writeEncoded(w http.ResponseWriter, status int, body []byte) {
	if writeHeader(w, status) {
		_, _ = w.Write(body)
	}
}

// writeHeader starts a JSON response with status and reports whether
// the caller should write its body. It is the chaos checkpoint of the
// response path: an injected error turns into a 500 written here, an
// injected panic is contained by recoverPanics.
func writeHeader(w http.ResponseWriter, status int) bool {
	w.Header().Set("Content-Type", "application/json")
	if err := fault.Check(fault.ServerWrite); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(errorBody{Error: errorDetail{
			Code: "internal", Message: "response write failed",
		}})
		return false
	}
	w.WriteHeader(status)
	return true
}

// writeItemError writes one failure envelope as the whole response. It
// is the one writer of error responses and the one place that sets
// Retry-After: on every 429 and on 503 over_budget, the refusals a
// client should retry after backing off.
func writeItemError(w http.ResponseWriter, ierr *ItemError) {
	if ierr.Status == http.StatusTooManyRequests ||
		ierr.Status == http.StatusServiceUnavailable && ierr.Code == "over_budget" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ierr.Status, errorBody{Error: errorDetail{Code: ierr.Code, Message: ierr.Message}})
}

// refuse counts one failure in counter (nil counts none) and returns
// its envelope.
func refuse(counter *atomic.Int64, status int, code, msg string) *ItemError {
	if counter != nil {
		counter.Add(1)
	}
	return &ItemError{Status: status, Code: code, Message: msg}
}

// badRequest refuses a malformed request with a counted 400.
func (s *Server) badRequest(msg string) *ItemError {
	return refuse(&s.met.BadRequests, http.StatusBadRequest, "bad_request", msg)
}

// draining refuses a request that arrived while the server drains.
func (s *Server) draining() *ItemError {
	return refuse(&s.met.RejectedDraining, http.StatusServiceUnavailable, "draining", "server is draining")
}

var (
	// errUnknownJob is a poll or cancel of a job id the job store does
	// not hold; it is not found like an unknown document key.
	errUnknownJob = errors.New("unknown job id (finished jobs expire)")
	// errRebaseBoundary is a composed version diff across a rebase,
	// where no delta chain joins the versions.
	errRebaseBoundary = errors.New("no contiguous delta chain between the versions (rebase boundary); use mode=rediff")
)

// fail is the one map from a pipeline, parse or store failure to its
// envelope and its one counter, so a failure fails alike on /v1/diff,
// in a batch item or job, and on the document-store endpoints:
//
//	404 not_found          unknown document, version or job id    bad_requests_total
//	409 format_mismatch    ingest in another format than the doc  bad_requests_total
//	409 rebase_boundary    compose across a rebase                bad_requests_total
//	503 store_unavailable  store closed or its log broken         errors_total
//	400 parse_error        ErrParse                               bad_requests_total
//	413 tree_too_large     ErrLimit                               rejected_size_total
//	504 deadline_exceeded  ErrCanceled                            timeouts_total
//	503 over_budget        ErrDegraded                            errors_total
//	500 internal           ErrInternal and anything unclassified  errors_total
func (s *Server) fail(err error) *ItemError {
	status, code, counter := http.StatusInternalServerError, "internal", &s.met.Errors
	switch {
	case errors.Is(err, store.ErrUnknownKey), errors.Is(err, store.ErrUnknownVersion), errors.Is(err, errUnknownJob):
		status, code, counter = http.StatusNotFound, "not_found", &s.met.BadRequests
	case errors.Is(err, store.ErrFormatMismatch):
		status, code, counter = http.StatusConflict, "format_mismatch", &s.met.BadRequests
	case errors.Is(err, errRebaseBoundary):
		status, code, counter = http.StatusConflict, "rebase_boundary", &s.met.BadRequests
	case errors.Is(err, store.ErrClosed), errors.Is(err, store.ErrLogBroken):
		status, code = http.StatusServiceUnavailable, "store_unavailable"
	default:
		switch lderr.KindOf(err) {
		case lderr.ErrParse:
			status, code, counter = http.StatusBadRequest, "parse_error", &s.met.BadRequests
		case lderr.ErrLimit:
			status, code, counter = http.StatusRequestEntityTooLarge, "tree_too_large", &s.met.RejectedSize
		case lderr.ErrCanceled:
			status, code, counter = http.StatusGatewayTimeout, "deadline_exceeded", &s.met.Timeouts
		case lderr.ErrDegraded:
			status, code = http.StatusServiceUnavailable, "over_budget"
		}
	}
	return refuse(counter, status, code, err.Error())
}

// readJSON reads the (size-capped) body into a pooled buffer and
// decodes it into dst.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) *ItemError {
	buf, ierr := s.readBody(w, r)
	if ierr != nil {
		return ierr
	}
	defer putBuf(buf)
	return s.decodeJSON(buf.Bytes(), dst)
}

// readBody reads the (size-capped) body into a pooled buffer, which the
// caller returns with putBuf.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, *ItemError) {
	buf := getBuf()
	body := fault.Reader(fault.ServerRead, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if _, err := buf.ReadFrom(body); err != nil {
		putBuf(buf)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, refuse(&s.met.RejectedSize, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		}
		return nil, s.badRequest("error reading request body")
	}
	return buf, nil
}

// decodeJSON decodes a request body, refusing a malformed one. A body
// that is not valid UTF-8 is refused first: json.Unmarshal would read
// each invalid byte as U+FFFD, and the server would diff a document the
// client never sent.
func (s *Server) decodeJSON(body []byte, dst any) *ItemError {
	if !utf8.Valid(body) {
		return s.badRequest(fmt.Sprintf("body is not valid UTF-8: first bad byte at offset %d", InvalidUTF8At(body)))
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return s.badRequest("malformed JSON: " + err.Error())
	}
	return nil
}

// InvalidUTF8At returns the offset of the first byte of b that does not
// begin a valid UTF-8 sequence, or -1 when b is valid UTF-8.
func InvalidUTF8At(b []byte) int {
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
	return -1
}

// enter admits one unit of work that holds a worker slot — a /v1/diff
// request (a body-level cache hit too), a patch, a document ingest,
// checkout or diff, or a batch item — and leave retires it. enter takes
// a slot from the scheduling core, waiting in its bounded queue, and
// counts the unit in flight. It starts the unit's deadline d before the
// test gate, so a gated unit's context provably expires while the gate
// is held; a body hit passes 0 and starts no timer. A refused unit
// holds nothing and gets its envelope, counted. Jobs do not come
// through here: the job store takes their slots.
func (s *Server) enter(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc, *ItemError) {
	if err := s.core.Acquire(ctx); err != nil {
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			return nil, nil, refuse(&s.met.RejectedQueue, http.StatusTooManyRequests, "queue_full",
				"server at capacity; retry after backoff")
		case errors.Is(err, fault.ErrInjected):
			// A chaos-injected admission failure is a server-side error,
			// not a client cancellation; it must land in the error counter
			// so exactly-once accounting holds through a fault storm.
			return nil, nil, refuse(&s.met.Errors, http.StatusInternalServerError, "internal",
				"admission failed: "+err.Error())
		}
		// The client went away while queued; the response is moot.
		return nil, nil, refuse(nil, http.StatusServiceUnavailable, "cancelled", "request cancelled while queued")
	}
	var cancel context.CancelFunc
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	s.met.InFlight.Add(1)
	s.waitTestGate()
	return ctx, cancel, nil
}

// leave retires a unit enter admitted: it stops the unit's deadline, if
// it has one, and gives its slot back.
func (s *Server) leave(cancel context.CancelFunc) {
	s.met.InFlight.Add(-1)
	if cancel != nil {
		cancel()
	}
	s.core.Release()
}

// timeout resolves a request's deadline from its TimeoutMs field and
// the server's default/maximum.
func (s *Server) timeout(ms int) time.Duration {
	return sched.Timeout(time.Duration(ms)*time.Millisecond, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
}

// parseItem parses one document under the server's node and depth
// limits, enforced while the tree is built so a pathological document
// aborts at the limit; which names the document in a failure's message.
func (s *Server) parseItem(which, format, src string) (*ladiff.Tree, *ItemError) {
	lim := ladiff.ParseLimits{MaxNodes: s.cfg.MaxTreeNodes, MaxDepth: s.cfg.MaxTreeDepth}
	t, err := store.ParseDoc(format, src, lim)
	if err != nil {
		return nil, s.fail(fmt.Errorf("%s document: %w", which, err))
	}
	return t, nil
}

// matcherFor maps the request's matcher name to the engine, resolving
// an empty name to the server's configured default.
func (s *Server) matcherFor(name string) (ladiff.Matcher, bool) {
	if name == "" {
		name = s.cfg.DefaultEngine
	}
	return ladiff.MatcherByName(name)
}

// diffPlan is a validated diff request, ready for execution: the
// request plus its resolved output and matching engine. planDiff builds
// it before admission (validation must not consume a worker slot);
// executeDiff runs it after.
type diffPlan struct {
	req     DiffRequest
	output  string
	matcher ladiff.Matcher
	// body is the /v1/diff request's body key, which a cache hit or
	// store teaches the entry; zero for batch items and jobs.
	body bodyKey
}

// planDiff validates one diff request and resolves its defaults,
// without taking a slot. Every consumer of the pipeline — /v1/diff,
// batch items, async jobs — goes through this one function, so a batch
// item or job is rejected with exactly the envelope the single-request
// path would produce.
func (s *Server) planDiff(req DiffRequest) (diffPlan, *ItemError) {
	if ierr := s.checkFormat(req.Format); ierr != nil {
		return diffPlan{}, ierr
	}
	output, ierr := s.checkOutput(req.Output)
	if ierr != nil {
		return diffPlan{}, ierr
	}
	matcher, ok := s.matcherFor(req.Matcher)
	if !ok {
		return diffPlan{}, s.badRequest(fmt.Sprintf("unknown matcher %q (want one of %v)",
			req.Matcher, ladiff.EngineNames()))
	}
	return diffPlan{req: req, output: output, matcher: matcher}, nil
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) *ItemError {
	body, ierr := s.readBody(w, r)
	if ierr != nil {
		return ierr
	}
	// Cache lookup, body level: the SHA-256 of the raw body. A hit skips
	// decoding and everything after it.
	var bk bodyKey
	if s.cache != nil {
		bk = sha256.Sum256(body.Bytes())
		if e, hitJSON, ok := s.cache.getBody(bk); ok {
			putBuf(body)
			return s.serveBodyHit(w, r, e, hitJSON)
		}
	}
	var req DiffRequest
	ierr = s.decodeJSON(body.Bytes(), &req)
	putBuf(body)
	if ierr != nil {
		return ierr
	}
	plan, ierr := s.planDiff(req)
	if ierr != nil {
		return ierr
	}
	plan.body = bk

	ctx, cancel, ierr := s.enter(r.Context(), s.timeout(req.TimeoutMs))
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)
	resp, ierr := s.executeDiff(ctx, plan)
	if ierr != nil {
		return ierr
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// serveBodyHit answers a byte-identical /v1/diff repeat from cache entry
// e. The request enters like any other slot holder, minus the deadline
// (nothing it does polls one), and counts as a source-level hit does;
// then it writes the entry's hit encoding, made here first if no
// body-level hit has made it yet.
func (s *Server) serveBodyHit(w http.ResponseWriter, r *http.Request, e *cacheEntry, hitJSON []byte) *ItemError {
	_, cancel, ierr := s.enter(r.Context(), 0)
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)

	start := time.Now()
	_, csp := obs.StartSpan(r.Context(), "cache")
	endCacheSpan(csp, "body", true)
	s.countHit(e.resp.Stats, start)
	if hitJSON == nil {
		hitJSON = encodeHit(e.resp)
		s.cache.setHitJSON(e, hitJSON)
	}
	writeEncoded(w, http.StatusOK, hitJSON)
	return nil
}

// encodeHit encodes resp as a cache hit, byte for byte as writeJSON
// writes it: json.Marshal escapes HTML as an Encoder does, and Encode
// ends the value with a newline. It returns nil if resp does not
// encode, which writes the empty body writeJSON leaves then.
func encodeHit(resp DiffResponse) []byte {
	resp.Cached = true
	b, err := json.Marshal(resp)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// executeDiff runs the validated plan through the full pipeline —
// source-key cache lookup, parse, match, generate, render — and
// returns either the response or the shared failure envelope. A repeat
// of byte-identical documents is answered before the parse; on that
// hit, and on a store, the entry learns the plan's body key. The
// caller must already hold a worker slot; metric accounting (phase
// latencies, node volumes, diffs/degraded counters) happens here,
// identically for every consumer.
func (s *Server) executeDiff(ctx context.Context, plan diffPlan) (*DiffResponse, *ItemError) {
	req, output, matcher := plan.req, plan.output, plan.matcher
	start := time.Now()
	prune := req.Prune || s.cfg.PruneIdentical

	// Cache lookup, source level: the SHA-256 of both sources plus the
	// options. A hit skips everything, the parse included.
	var src sourceKey
	if s.cache != nil {
		src = sourceKey{digest: sourceDigest(req.Old, req.New), opts: cacheOpts{
			format:            req.Format,
			output:            output,
			matcher:           matcher,
			leafThreshold:     req.LeafThreshold,
			internalThreshold: req.InternalThreshold,
			prune:             prune,
		}}
		_, csp := obs.StartSpan(ctx, "cache")
		hit, ok := s.cache.getSource(src, plan.body)
		endCacheSpan(csp, "source", ok)
		if ok {
			s.countHit(hit.Stats, start)
			hit.Cached = true
			return &hit, nil
		}
	}

	phaseMicros := make(map[string]int64, numPhases)
	observe := func(p Phase, d time.Duration) {
		s.met.PhaseLatency[p].Observe(d)
		phaseMicros[phaseNames[p]] = d.Microseconds()
	}

	// Phase 1: parse, with node/depth guards enforced during the parse.
	// Parsers do not poll the context — they are linear in the input,
	// which the body and streaming tree limits already bound.
	t0 := time.Now()
	_, psp := obs.StartSpan(ctx, "parse")
	psp.Str("format", req.Format)
	oldT, perr := s.parseItem("old", req.Format, req.Old)
	if perr != nil {
		psp.Str("error", "old document failed to parse")
		psp.End()
		return nil, perr
	}
	newT, perr := s.parseItem("new", req.Format, req.New)
	if perr != nil {
		psp.Str("error", "new document failed to parse")
		psp.End()
		return nil, perr
	}
	psp.Int("old_nodes", int64(oldT.Len()))
	psp.Int("new_nodes", int64(newT.Len()))
	psp.End()
	observe(PhaseParse, time.Since(t0))

	s.met.OldNodes.Add(int64(oldT.Len()))
	s.met.NewNodes.Add(int64(newT.Len()))

	var (
		m               *ladiff.Matching
		degradedReasons []string
		res             *ladiff.Result
	)
	// Root-hash short circuit: when pruning is on and the documents are
	// fingerprint-identical (structurally confirmed), the whole
	// match+generate pipeline is known — empty script, every node
	// matched positionally.
	t0 = time.Now()
	if prune {
		if sc, ok := ladiff.ShortCircuitIdentical(ctx, oldT, newT); ok {
			res, m = sc, sc.Matching
			observe(PhaseMatch, time.Since(t0))
			observe(PhaseGenerate, 0)
		}
	}
	if res == nil {
		// Phase 2: match (context- and budget-bounded). A budgeted
		// simple/zs run that exhausts the work budget degrades to
		// FastMatch here.
		mm, reasons, err := ladiff.FindMatchingFor(oldT, newT, matcher, ladiff.MatchOptions{
			Ctx:               ctx,
			LeafThreshold:     req.LeafThreshold,
			InternalThreshold: req.InternalThreshold,
			WorkBudget:        s.cfg.MatchWorkBudget,
			PruneIdentical:    prune,
		})
		if err != nil {
			return nil, s.fail(err)
		}
		m, degradedReasons = mm, reasons
		observe(PhaseMatch, time.Since(t0))

		// Phase 3: generate (context-bounded; degrades to the scan
		// generator if the indexed path fails its self-check).
		t0 = time.Now()
		res, err = ladiff.ComputeEditScriptWith(oldT, newT, m, ladiff.GenOptions{Ctx: ctx})
		if err != nil {
			return nil, s.fail(err)
		}
		observe(PhaseGenerate, time.Since(t0))
	}
	if res.Degraded {
		degradedReasons = append(degradedReasons, res.DegradedReasons...)
	}

	// Phase 4: render the requested output.
	t0 = time.Now()
	_, rsp := obs.StartSpan(ctx, "serialize")
	rsp.Str("output", output)
	resp := DiffResponse{Format: req.Format, Output: output}
	var err error
	if resp.Script, resp.Delta, resp.Document, err = render(res, req.Format, output); err != nil {
		rsp.Str("error", err.Error())
		rsp.End()
		return nil, s.fail(err)
	}
	rsp.Int("ops", int64(len(res.Script)))
	rsp.End()
	observe(PhaseRender, time.Since(t0))

	resp.Stats = DiffStats{
		OldNodes:    oldT.Len(),
		NewNodes:    newT.Len(),
		Matched:     m.Len(),
		Ops:         len(res.Script),
		Cost:        ladiff.UnitCosts().Cost(res.Script),
		PhaseMicros: phaseMicros,
	}
	if len(degradedReasons) > 0 {
		resp.Degraded = true
		resp.DegradedReasons = degradedReasons
		s.met.Degraded.Add(1)
	}
	// Store successful, non-degraded responses only: a degraded result
	// reflects this moment's budget pressure, not the documents, and
	// must not be replayed to later requests.
	if s.cache != nil && !resp.Degraded {
		s.cache.put(src, plan.body, resp)
	}
	s.met.Diffs.Add(1)
	s.met.RequestLatency.Observe(time.Since(start))
	return &resp, nil
}

// countHit accounts a request answered from the diff cache at either
// level. The node volumes come from the cached Stats — the same counts
// a parse of this request would have added.
func (s *Server) countHit(st DiffStats, start time.Time) {
	s.met.CacheHits.Add(1)
	s.met.OldNodes.Add(int64(st.OldNodes))
	s.met.NewNodes.Add(int64(st.NewNodes))
	s.met.Diffs.Add(1)
	s.met.RequestLatency.Observe(time.Since(start))
}

// endCacheSpan records which key a cache lookup tried and its outcome.
func endCacheSpan(sp *obs.Span, key string, hit bool) {
	result := "miss"
	if hit {
		result = "hit"
	}
	sp.Str("key", key)
	sp.Str("result", result)
	sp.End()
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) *ItemError {
	var req PatchRequest
	if ierr := s.readJSON(w, r, &req); ierr != nil {
		return ierr
	}
	if ierr := s.checkFormat(req.Format); ierr != nil {
		return ierr
	}
	ctx, cancel, ierr := s.enter(r.Context(), s.timeout(req.TimeoutMs))
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)

	start := time.Now()
	baseT, ierr := s.parseItem("base", req.Format, req.Base)
	if ierr != nil {
		return ierr
	}
	s.met.PhaseLatency[PhaseParse].Observe(time.Since(start))
	if err := ctx.Err(); err != nil {
		return s.fail(err)
	}
	out, inv, err := patch(req.Script, baseT, req.Invert)
	if err != nil {
		return refuse(&s.met.Errors, http.StatusUnprocessableEntity, "patch_error", err.Error())
	}
	t0 := time.Now()
	doc, err := store.RenderDoc(req.Format, out)
	if err != nil {
		return s.fail(fmt.Errorf("render: %w", err))
	}
	s.met.PhaseLatency[PhaseRender].Observe(time.Since(t0))
	s.met.Patches.Add(1)
	s.met.RequestLatency.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, PatchResponse{Format: req.Format, Document: doc, Script: inv})
	return nil
}

// patch applies script to base; with invert it also computes the
// inverse and verifies that apply(script); apply(inverse) lands back on
// base. It returns the tree the response renders — the patched base, or
// the reverted one as proof the inverse reverts — and the inverse.
// Scripts reference node IDs of a deterministic parse of the base, and
// re-parsing a rendered document renumbers IDs, so the whole round trip
// runs against this one parse. The script is replayed once: inverting
// it yields the patched tree, which the inverse then reverts in place.
func patch(script ladiff.Script, base *ladiff.Tree, invert bool) (*ladiff.Tree, ladiff.Script, error) {
	if !invert {
		patched, err := script.ApplyTo(base)
		if err != nil {
			return nil, nil, fmt.Errorf("apply: %w", err)
		}
		return patched, nil, nil
	}
	inv, work, err := edit.Invert(script, base)
	if err != nil {
		return nil, nil, fmt.Errorf("invert: %w", err)
	}
	if err := inv.Apply(work); err != nil {
		return nil, nil, fmt.Errorf("apply inverse: %w", err)
	}
	if !ladiff.Isomorphic(work, base) {
		return nil, nil, errors.New("inverse script does not revert the base document")
	}
	return work, inv, nil
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It stays 200 even while draining — a draining server is still alive,
// and flipping liveness during drain makes an orchestrator kill the
// process before its in-flight requests complete. Routability is
// /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether new traffic should be routed
// here. It flips to 503 the moment BeginDrain is called — before the
// in-flight drain completes — so load balancers and the routing tier
// stop sending work while admitted requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.core.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.Snapshot()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		snap.Store = &st
	}
	writeJSON(w, http.StatusOK, snap)
}

// waitTestGate blocks until the test gate opens; a nil gate (every
// non-test server) never blocks.
func (s *Server) waitTestGate() {
	if s.testGate != nil {
		<-s.testGate
	}
}

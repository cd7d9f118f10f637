package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/obs"
	"ladiff/internal/sched"
)

// DiffRequest is the body of POST /v1/diff.
type DiffRequest struct {
	// Old and New are the two document versions, as source text in
	// Format's syntax.
	Old string `json:"old"`
	New string `json:"new"`
	// Format selects the parser front end; see Formats.
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
	// Cached reports that the response was served from the
	// fingerprint-keyed diff cache without re-running the pipeline;
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

// ItemError is the shared failure envelope of the scheduling core's
// consumers: the code and message match what the single-request path
// puts in its error envelope, and Status is the HTTP status the same
// failure would have produced on /v1/diff — so a batch item or an async
// job fails exactly like the equivalent single request.
type ItemError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *ItemError) Error() string { return e.Code + ": " + e.Message }

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Chaos checkpoint for the response path: an injected error here
	// turns into a 500, an injected panic is contained by recoverPanics.
	if err := fault.Check(fault.ServerWrite); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(errorBody{Error: errorDetail{
			Code: "internal", Message: "response write failed",
		}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: msg}})
}

// beginRequest registers the request as in-flight with the scheduling
// core unless the server is draining; endRequest retires it. The core
// holds its drain flag under a lock spanning the in-flight Add, so no
// Add can race with Shutdown's Wait: once BeginDrain is granted, every
// later request sees draining and is refused.
func (s *Server) beginRequest() bool { return s.core.Begin() }

func (s *Server) endRequest() { s.core.End() }

// readJSON reads the (size-capped) body into a pooled buffer and
// decodes it, writing the appropriate error response on failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	buf := getBuf()
	defer putBuf(buf)
	body := fault.Reader(fault.ServerRead, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if _, err := buf.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.RejectedSize.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		} else {
			s.met.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, "bad_request", "error reading request body")
		}
		return false
	}
	if err := json.Unmarshal(buf.Bytes(), dst); err != nil {
		s.met.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// admit runs the scheduling core's admission and translates its
// failures to HTTP. On success the caller owns one slot and must call
// s.core.Release().
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	ierr := s.acquireSlot(r.Context())
	if ierr != nil {
		if ierr.Status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, ierr.Status, ierr.Code, ierr.Message)
		return false
	}
	return true
}

// acquireSlot takes one execution slot from the scheduling core,
// mapping failures to the per-item error envelope (the single-request
// path writes it via admit; batch items embed it). Metric accounting
// happens here so a batch item's rejection counts exactly like a
// single request's.
func (s *Server) acquireSlot(ctx context.Context) *ItemError {
	err := s.core.Acquire(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sched.ErrQueueFull):
		s.met.RejectedQueue.Add(1)
		return &ItemError{Status: http.StatusTooManyRequests, Code: "queue_full",
			Message: "server at capacity; retry after backoff"}
	case errors.Is(err, fault.ErrInjected):
		// A chaos-injected admission failure is a server-side error, not
		// a client cancellation; it must land in the error counter so
		// exactly-once accounting holds through a fault storm.
		s.met.Errors.Add(1)
		return &ItemError{Status: http.StatusInternalServerError, Code: "internal",
			Message: "admission failed: " + err.Error()}
	default:
		// The client went away while queued; the response is moot.
		return &ItemError{Status: http.StatusServiceUnavailable, Code: "cancelled",
			Message: "request cancelled while queued"}
	}
}

// timeout resolves a request's deadline from its TimeoutMs field and
// the server's default/maximum.
func (s *Server) timeout(ms int) time.Duration {
	return sched.Timeout(time.Duration(ms)*time.Millisecond, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
}

// pipelineError maps a mid-pipeline error through the error taxonomy
// to the shared failure envelope: 504 for cancellation/deadline, 503
// for a work budget exhausted with no fallback left, 500 for internal
// errors and anything unclassified. Metric accounting happens here so
// every consumer (single diff, batch item, async job) counts failures
// identically.
func (s *Server) pipelineError(err error) *ItemError {
	switch ladiff.ErrorKind(err) {
	case ladiff.ErrCanceled:
		s.met.Timeouts.Add(1)
		return &ItemError{Status: http.StatusGatewayTimeout, Code: "deadline_exceeded", Message: err.Error()}
	case ladiff.ErrDegraded:
		s.met.Errors.Add(1)
		return &ItemError{Status: http.StatusServiceUnavailable, Code: "over_budget", Message: err.Error()}
	default:
		s.met.Errors.Add(1)
		return &ItemError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
}

// failPipeline writes the response for a mid-pipeline error.
func (s *Server) failPipeline(w http.ResponseWriter, err error) {
	s.writeItemError(w, s.pipelineError(err))
}

// writeItemError writes one failure envelope as a whole-request error
// response, preserving the single-request wire contract (Retry-After
// on 503 over_budget and 429 queue_full).
func (s *Server) writeItemError(w http.ResponseWriter, ierr *ItemError) {
	if ierr.Status == http.StatusServiceUnavailable && ierr.Code == "over_budget" ||
		ierr.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, ierr.Status, ierr.Code, ierr.Message)
}

// parseLimits is the per-document limit set every parse runs under:
// node and depth guards enforced while the tree is built. (Body bytes
// are already capped by MaxBytesReader before parsing.)
func (s *Server) parseLimits() ladiff.ParseLimits {
	return ladiff.ParseLimits{
		MaxNodes: s.cfg.MaxTreeNodes,
		MaxDepth: s.cfg.MaxTreeDepth,
	}
}

// parseItem parses one document under the server limits, mapping
// failures to the shared envelope: 413 for a violated limit (streaming
// enforcement — the parse stops at the limit), 400 for a syntax error.
func (s *Server) parseItem(which, format, src string) (*ladiff.Tree, *ItemError) {
	t, err := parseDoc(format, src, s.parseLimits())
	if err != nil {
		if errors.Is(err, ladiff.ErrLimit) {
			s.met.RejectedSize.Add(1)
			return nil, &ItemError{Status: http.StatusRequestEntityTooLarge, Code: "tree_too_large",
				Message: fmt.Sprintf("%s document: %s", which, err.Error())}
		}
		s.met.BadRequests.Add(1)
		return nil, &ItemError{Status: http.StatusBadRequest, Code: "parse_error",
			Message: which + " document: " + err.Error()}
	}
	return t, nil
}

// parseChecked is parseItem writing the failure as the whole response.
func (s *Server) parseChecked(w http.ResponseWriter, which, format, src string) (*ladiff.Tree, bool) {
	t, ierr := s.parseItem(which, format, src)
	if ierr != nil {
		writeError(w, ierr.Status, ierr.Code, ierr.Message)
		return nil, false
	}
	return t, true
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
}

// planDiff validates one diff request and resolves its defaults,
// without taking a slot. Every consumer of the pipeline — /v1/diff,
// batch items, async jobs — goes through this one function, so a batch
// item or job is rejected with exactly the envelope the single-request
// path would produce.
func (s *Server) planDiff(req DiffRequest) (diffPlan, *ItemError) {
	if !validFormat(req.Format) {
		s.met.BadRequests.Add(1)
		return diffPlan{}, &ItemError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("unknown format %q (want one of %v)", req.Format, Formats)}
	}
	output := req.Output
	if output == "" {
		output = "script"
	}
	if !validOutput(output) {
		s.met.BadRequests.Add(1)
		return diffPlan{}, &ItemError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("unknown output %q (want one of %v)", output, Outputs)}
	}
	matcher, ok := s.matcherFor(req.Matcher)
	if !ok {
		s.met.BadRequests.Add(1)
		return diffPlan{}, &ItemError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("unknown matcher %q (want one of %v)", req.Matcher, ladiff.EngineNames())}
	}
	return diffPlan{req: req, output: output, matcher: matcher}, nil
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Add(1)
	if !s.beginRequest() {
		s.met.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.endRequest()

	var req DiffRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	plan, ierr := s.planDiff(req)
	if ierr != nil {
		s.writeItemError(w, ierr)
		return
	}

	if !s.admit(w, r) {
		return
	}
	defer s.core.Release()
	// The deadline starts ticking at admission, before the test gate, so
	// a gated request's context provably expires while the gate is held.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	s.met.InFlight.Add(1)
	defer s.met.InFlight.Add(-1)
	s.waitTestGate()

	resp, ierr := s.executeDiff(ctx, plan)
	if ierr != nil {
		s.writeItemError(w, ierr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// executeDiff runs the validated plan through the full pipeline —
// parse, cache lookup, match, generate, render — and returns either the
// response or the shared failure envelope. The caller must already hold
// a worker slot; metric accounting (phase latencies, node volumes,
// diffs/degraded counters) happens here, identically for every consumer.
func (s *Server) executeDiff(ctx context.Context, plan diffPlan) (*DiffResponse, *ItemError) {
	req, output, matcher := plan.req, plan.output, plan.matcher
	start := time.Now()
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

	// Cache lookup: the key is the content (Merkle root fingerprints of
	// both parsed trees) plus every option that shapes the response. A
	// hit skips match, generation, and render entirely — the O(1) serving
	// path of the fingerprint ladder.
	prune := req.Prune || s.cfg.PruneIdentical
	var ckey cacheKey
	if s.cache != nil {
		ckey = cacheKey{
			oldFP: ladiff.RootFingerprint(oldT),
			newFP: ladiff.RootFingerprint(newT),
			opts: cacheOpts{
				format:            req.Format,
				output:            output,
				matcher:           matcher,
				leafThreshold:     req.LeafThreshold,
				internalThreshold: req.InternalThreshold,
				prune:             prune,
			},
		}
		_, csp := obs.StartSpan(ctx, "cache")
		hit, ok := s.cache.get(ckey)
		if ok {
			csp.Str("result", "hit")
			csp.End()
			hit.Cached = true
			s.met.Diffs.Add(1)
			s.met.RequestLatency.Observe(time.Since(start))
			return &hit, nil
		}
		csp.Str("result", "miss")
		csp.End()
	}

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
			Parallelism:       s.cfg.MatchParallelism,
			LeafThreshold:     req.LeafThreshold,
			InternalThreshold: req.InternalThreshold,
			WorkBudget:        s.cfg.MatchWorkBudget,
			PruneIdentical:    prune,
		})
		if err != nil {
			return nil, s.pipelineError(err)
		}
		m, degradedReasons = mm, reasons
		observe(PhaseMatch, time.Since(t0))

		// Phase 3: generate (context-bounded; degrades to the scan
		// generator if the indexed path fails its self-check).
		t0 = time.Now()
		res, err = ladiff.ComputeEditScriptWith(oldT, newT, m, ladiff.GenOptions{Ctx: ctx})
		if err != nil {
			return nil, s.pipelineError(err)
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
	switch output {
	case "script":
		resp.Script = res.Script
	case "delta", "marked":
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			s.met.Errors.Add(1)
			rsp.Str("error", "delta: "+err.Error())
			rsp.End()
			return nil, &ItemError{Status: http.StatusInternalServerError, Code: "internal",
				Message: "delta: " + err.Error()}
		}
		if output == "delta" {
			raw, err := marshalDelta(dt)
			if err != nil {
				s.met.Errors.Add(1)
				rsp.Str("error", "delta: "+err.Error())
				rsp.End()
				return nil, &ItemError{Status: http.StatusInternalServerError, Code: "internal",
					Message: "delta: " + err.Error()}
			}
			resp.Delta = raw
		} else {
			resp.Document = renderMarked(req.Format, dt)
		}
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
		s.cache.put(ckey, resp)
	}
	s.met.Diffs.Add(1)
	s.met.RequestLatency.Observe(time.Since(start))
	return &resp, nil
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Add(1)
	if !s.beginRequest() {
		s.met.RejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.endRequest()

	var req PatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if !validFormat(req.Format) {
		s.met.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown format %q (want one of %v)", req.Format, Formats))
		return
	}

	if !s.admit(w, r) {
		return
	}
	defer s.core.Release()
	// The deadline starts ticking at admission, before the test gate, so
	// a gated request's context provably expires while the gate is held.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	s.met.InFlight.Add(1)
	defer s.met.InFlight.Add(-1)
	s.waitTestGate()

	start := time.Now()

	t0 := time.Now()
	baseT, ok := s.parseChecked(w, "base", req.Format, req.Base)
	if !ok {
		return
	}
	s.met.PhaseLatency[PhaseParse].Observe(time.Since(t0))
	if err := ctx.Err(); err != nil {
		s.failPipeline(w, err)
		return
	}

	resp := PatchResponse{Format: req.Format}
	if req.Invert {
		// Scripts reference node IDs of a deterministic parse of the
		// base, and re-parsing a rendered document renumbers IDs — so
		// the whole round trip runs server-side against this parse:
		// invert against base, apply forward, apply the inverse, and
		// verify we are back where we started.
		inv, err := ladiff.InvertScript(req.Script, baseT)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "patch_error", "invert: "+err.Error())
			return
		}
		patched, err := req.Script.ApplyTo(baseT)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "patch_error", "apply: "+err.Error())
			return
		}
		reverted, err := inv.ApplyTo(patched)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "patch_error", "apply inverse: "+err.Error())
			return
		}
		if !ladiff.Isomorphic(reverted, baseT) {
			s.met.Errors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "patch_error",
				"inverse script does not revert the base document")
			return
		}
		t0 = time.Now()
		doc, err := renderDoc(req.Format, reverted)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusInternalServerError, "internal", "render: "+err.Error())
			return
		}
		s.met.PhaseLatency[PhaseRender].Observe(time.Since(t0))
		resp.Script = inv
		resp.Document = doc
	} else {
		patched, err := req.Script.ApplyTo(baseT)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "patch_error", "apply: "+err.Error())
			return
		}
		t0 = time.Now()
		doc, err := renderDoc(req.Format, patched)
		if err != nil {
			s.met.Errors.Add(1)
			writeError(w, http.StatusInternalServerError, "internal", "render: "+err.Error())
			return
		}
		s.met.PhaseLatency[PhaseRender].Observe(time.Since(t0))
		resp.Document = doc
	}

	s.met.Patches.Add(1)
	s.met.RequestLatency.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
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

package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/fault"
	"ladiff/internal/sched"
)

// vnodes is the number of virtual nodes per replica on the hash ring:
// enough to smooth the key distribution and shrink the slices moved
// per membership change.
const vnodes = 64

// Config tunes one Router. The zero value of every field has a default
// applied by New; only Replicas is required.
type Config struct {
	// Replicas are the backend base URLs, e.g. "http://10.0.0.1:8044".
	Replicas []string
	// ProbeInterval is how often each replica's /readyz is probed, and
	// the bound on one probe (a probe slower than the interval is a
	// failure by definition). 0 means 1s.
	ProbeInterval time.Duration
	// Rise and Fall are the probe hysteresis: an ejected replica needs
	// Rise consecutive passing probes to be re-admitted, a live one
	// Fall consecutive failures to be ejected. 0 means 2 each.
	Rise, Fall int
	// Breaker is the consecutive proxied-request failures that trip a
	// replica's circuit breaker; 0 means 3, negative disables.
	Breaker int
	// BreakerCooldown is how long a tripped breaker holds the replica
	// out before a half-open trial request. 0 means 3s.
	BreakerCooldown time.Duration
	// AttemptTimeout bounds each proxied attempt (connect through body
	// copy) for non-streaming requests. 0 means 10s. Feeds are exempt:
	// an SSE stream is long-lived by design.
	AttemptTimeout time.Duration
	// MaxBodyBytes caps the buffered request body (bodies are buffered
	// so a stateless request's failover hop can replay them and a batch
	// can be split per item). 0 means 16 MiB.
	MaxBodyBytes int64
	// Logger receives failover and health-transition logs; nil means
	// slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Rise <= 0 {
		c.Rise = 2
	}
	if c.Fall <= 0 {
		c.Fall = 2
	}
	if c.Breaker == 0 {
		c.Breaker = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Router is the consistent-hash proxy tier. Construct with New, mount
// Handler on a listener, and call Shutdown to drain. Safe for
// concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	reps   map[string]*replica
	client *http.Client
	met    metrics

	// gate is the drain discipline the replicas' scheduling core uses
	// too: proxied requests register in it, and Shutdown waits them out.
	gate sched.Gate

	// pins remembers which replica owns each async job (see jobs.go).
	pins jobPins

	// life spans the router's lifetime: Shutdown cancels it, which stops
	// the probers and severs proxied feed streams.
	life    context.Context
	stop    context.CancelFunc
	probeWG sync.WaitGroup
}

// metrics is the router's exactly-once request accounting: every
// proxied request lands in precisely one of relayed / noReplica /
// failed / rejectedDraining, so requests always equals their sum — the
// invariant the chaos test audits after the storm.
type metrics struct {
	requests         atomic.Int64 // proxied API requests admitted for routing
	relayed          atomic.Int64 // a replica response was passed through (any status)
	noReplica        atomic.Int64 // no live replica to try → 503 no_replicas / owner_unavailable
	failed           atomic.Int64 // answered by the router: transport failure → 502, unreadable body → 400, body over MaxBodyBytes → 413
	rejectedDraining atomic.Int64 // refused because the router is draining

	attempts  atomic.Int64 // proxied attempts across all replicas
	failovers atomic.Int64 // attempts re-sent to a ring successor
}

// Snapshot is the /metrics wire form.
type Snapshot struct {
	Requests         int64           `json:"requests_total"`
	Relayed          int64           `json:"relayed_total"`
	NoReplica        int64           `json:"no_replica_total"`
	Failed           int64           `json:"failed_total"`
	RejectedDraining int64           `json:"rejected_draining_total"`
	Attempts         int64           `json:"attempts_total"`
	Failovers        int64           `json:"failovers_total"`
	Replicas         []ReplicaStatus `json:"replicas"`
}

// ReplicaStatus is one replica's health view in the metrics snapshot.
type ReplicaStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	BreakerOpen bool   `json:"breaker_open"`
	Alive       bool   `json:"alive"`
	Attempts    int64  `json:"attempts_total"`
	Failures    int64  `json:"failures_total"`
}

// New builds a Router over cfg.Replicas and starts its health probers.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas, vnodes),
		reps:   make(map[string]*replica, len(cfg.Replicas)),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
	}
	rt.life, rt.stop = context.WithCancel(context.Background())
	for _, u := range rt.ring.Replicas() {
		if _, dup := rt.reps[u]; dup {
			continue
		}
		rep := newReplica(u, cfg.Breaker, cfg.BreakerCooldown)
		rt.reps[u] = rep
		rt.probeWG.Add(1)
		go rt.probeLoop(rep)
	}
	return rt
}

// Handler returns the router's HTTP surface: the full replica API
// proxied by consistent hash, plus the router's own /healthz, /readyz
// and /metrics.
func (rt *Router) Handler() http.Handler { return http.HandlerFunc(rt.serveHTTP) }

// Snapshot returns the current metrics.
func (rt *Router) Snapshot() Snapshot {
	snap := Snapshot{
		Requests:         rt.met.requests.Load(),
		Relayed:          rt.met.relayed.Load(),
		NoReplica:        rt.met.noReplica.Load(),
		Failed:           rt.met.failed.Load(),
		RejectedDraining: rt.met.rejectedDraining.Load(),
		Attempts:         rt.met.attempts.Load(),
		Failovers:        rt.met.failovers.Load(),
	}
	urls := make([]string, 0, len(rt.reps))
	for u := range rt.reps {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		rep := rt.reps[u]
		snap.Replicas = append(snap.Replicas, ReplicaStatus{
			URL:         u,
			Healthy:     rep.Healthy(),
			BreakerOpen: rep.breaker.Open(),
			Alive:       rep.Alive(),
			Attempts:    rep.attempts.Load(),
			Failures:    rep.failures.Load(),
		})
	}
	return snap
}

// BeginDrain flips the router into draining mode: /readyz starts
// failing and new proxied requests are refused with 503, while
// admitted ones (including open feed streams) run to completion.
func (rt *Router) BeginDrain() { rt.gate.BeginDrain() }

// Shutdown drains the router: it begins draining, stops the health
// probers, severs proxied feed streams (their subscribers reconnect
// through whatever fronts the ring next; the replicas' stores hold the
// history), and waits for in-flight proxied requests to finish or ctx
// to end. Idle upstream connections are closed on the way out.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.BeginDrain()
	rt.stop()
	rt.probeWG.Wait()
	defer rt.client.CloseIdleConnections()
	return rt.gate.Drain(ctx)
}

// writeError emits the API's error envelope, matching the replicas'
// own shape so clients never see a second format.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, code, msg)
}

func (rt *Router) serveHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok"}`)
		return
	case "/readyz":
		if rt.gate.Draining() {
			writeError(w, http.StatusServiceUnavailable, "draining", "router is draining")
			return
		}
		for _, rep := range rt.reps {
			if rep.Alive() {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"status":"ready"}`)
				return
			}
		}
		writeError(w, http.StatusServiceUnavailable, "no_replicas", "no live replica")
		return
	case "/metrics":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.Snapshot())
		return
	}

	if !rt.gate.Begin() {
		rt.met.rejectedDraining.Add(1)
		rt.met.requests.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "router is draining")
		return
	}
	defer rt.gate.End()
	rt.met.requests.Add(1)

	body, err := readBody(r, rt.cfg.MaxBodyBytes)
	if err != nil {
		rt.met.failed.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		rt.met.failed.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
		return
	}

	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v1/docs":
		rt.proxyDocList(w, r)
		return
	case r.Method == http.MethodPost && r.URL.Path == "/v1/diff/batch":
		rt.proxyBatch(w, r, body)
		return
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/diff":
		rt.proxyJobSubmit(w, r, body)
		return
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		rt.proxyJobByID(w, r, body)
		return
	}
	rt.proxy(w, r, body)
}

// readBody reads r's body, up to limit+1 bytes so that the caller can
// tell an oversize one. A body whose declared length is within limit
// is read into one buffer of that size, and one that declares 0 is not
// read at all; only an unknown length (or an oversize one) goes through
// io.ReadAll, whose buffer starts at 512 bytes and doubles.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= limit {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(r.Body, limit+1))
}

// shardKey maps a request to its ring key. Document routes shard on
// the document key, so every version, diff, and feed of one document
// lands on one replica (its delta chain and cache locality live
// there). The stateless diff/patch RPCs shard on a fingerprint of the
// body: the same inputs return to the same replica, which is what
// keeps its diff cache hot for repeated comparisons.
func shardKey(r *http.Request, body []byte) string {
	path := r.URL.Path
	if rest, ok := strings.CutPrefix(path, "/v1/docs/"); ok {
		key := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			key = rest[:i]
		}
		if dec, err := pathUnescape(key); err == nil {
			key = dec
		}
		return "doc:" + key
	}
	return fmt.Sprintf("body:%x", hash64(string(body)))
}

// pathUnescape decodes one path segment; split out so shardKey stays
// readable.
func pathUnescape(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	return url.PathUnescape(s)
}

// idempotent reports whether a stateless request may be replayed on
// another replica after a transient failure. Reads are; so are the
// POST /v1/diff, /v1/patch and /v1/diff/batch RPCs (pure functions of
// the body). Document routes never reach this question: they have one
// replica to ask.
func idempotent(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return true
	case http.MethodPost:
		return r.URL.Path == "/v1/diff" || r.URL.Path == "/v1/patch" ||
			r.URL.Path == "/v1/diff/batch"
	}
	return false
}

// transientStatus reports whether an upstream status means "this
// replica can't right now" (worth a failover) as opposed to a verdict
// about the request. 429 is deliberately NOT transient here: it is the
// replica's back-pressure signal, and spraying the same request at the
// rest of the ring during overload converts local pressure into
// cluster-wide pressure. It passes through with its Retry-After.
func transientStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	rep    *replica
	resp   *http.Response
	err    error
	cancel context.CancelFunc
}

// discard releases a result that will not be relayed. The zero value
// (no attempt ran) is a no-op.
func (a attemptResult) discard() {
	if a.resp != nil {
		a.resp.Body.Close()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// failedTransiently reports whether the attempt should count against
// the replica and trigger failover.
func (a attemptResult) failedTransiently() bool {
	if a.err != nil {
		return true
	}
	return transientStatus(a.resp.StatusCode)
}

// proxy routes one buffered-body request. A document route goes to the
// key's ring owner alone, once: every version of a document must be an
// edit script on the owner's one delta chain, so a write committed on
// any other replica would start a second chain and a read served there
// would answer from it. Stateless requests walk the key's failover
// chain instead: one failover hop for idempotent requests, one attempt
// for the rest.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, body []byte) {
	key := shardKey(r, body)
	if strings.HasPrefix(key, "doc:") {
		// /v1/docs/{key}/feed and only it is an event stream
		// ("/v1/docs/feed" is a checkout of a document named "feed").
		sse := strings.HasSuffix(r.URL.Path, "/feed") && strings.Count(r.URL.Path, "/") >= 4
		rt.proxyOwned(w, r, body, rt.ring.Owner(key), sse)
		return
	}
	maxAttempts := 1
	if idempotent(r) {
		maxAttempts = 2 // one failover hop: bounded work under a storm
	}
	res, n := rt.forward(r, rt.ring.Successors(key), body, maxAttempts, false)
	if n == 0 {
		rt.noReplicas(w)
		return
	}
	rt.relay(w, res, false)
}

// proxyOwned sends the request to owner alone, in one attempt. While
// the owner is ejected or its breaker is open the caller gets 503
// owner_unavailable: no other replica holds the state it asks about.
func (rt *Router) proxyOwned(w http.ResponseWriter, r *http.Request, body []byte, owner string, sse bool) {
	res, n := rt.forward(r, []string{owner}, body, 1, sse)
	if n == 0 {
		rt.ownerUnavailable(w, "the replica that owns this key is unavailable")
		return
	}
	rt.relay(w, res, sse)
}

// noReplicas answers a stateless request none of whose replicas is
// live.
func (rt *Router) noReplicas(w http.ResponseWriter) {
	rt.met.noReplica.Add(1)
	writeError(w, http.StatusServiceUnavailable, "no_replicas", "no live replica for key")
}

// ownerUnavailable answers a request whose one permissible replica
// cannot serve it. Retry-After: 1 is the hint the replicas send on
// their own 503s.
func (rt *Router) ownerUnavailable(w http.ResponseWriter, msg string) {
	rt.met.noReplica.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "owner_unavailable", msg)
}

// forward is the one walk over a replica chain. It tries the replicas
// in chain order, skipping any that is ejected or whose breaker
// refuses, until an attempt succeeds or does not fail transiently, or
// maxAttempts attempts have run; every attempt after the first is a
// failover. It returns the last attempt, whose body and cancel the
// caller owns, and the number of attempts; 0 means no replica in chain
// was live.
func (rt *Router) forward(r *http.Request, chain []string, body []byte, maxAttempts int, sse bool) (attemptResult, int) {
	var last attemptResult
	attempts := 0
	for _, u := range chain {
		if attempts == maxAttempts {
			break
		}
		rep := rt.reps[u]
		if rep == nil || !rep.Healthy() || rep.breaker.Allow() != nil {
			continue
		}
		if attempts > 0 {
			rt.met.failovers.Add(1)
			last.discard()
		}
		attempts++
		last = rt.attempt(r, rep, body, sse)
		if !last.failedTransiently() {
			break
		}
	}
	return last, attempts
}

// attempt forwards one copy of the request to rep. Non-streaming
// attempts run under the per-attempt deadline; feed attempts get a
// plain cancel (the stream is long-lived). The caller owns the
// returned response body and cancel func.
func (rt *Router) attempt(r *http.Request, rep *replica, body []byte, sse bool) attemptResult {
	var ctx context.Context
	var cancel context.CancelFunc
	if sse {
		ctx, cancel = context.WithCancel(r.Context())
	} else {
		ctx, cancel = context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
	}
	rt.met.attempts.Add(1)
	rep.attempts.Add(1)
	res := attemptResult{rep: rep, cancel: cancel}
	if err := fault.Check(fault.RouteForward); err != nil {
		res.err = err
	} else {
		req, err := http.NewRequestWithContext(ctx, r.Method, rep.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			res.err = err
		} else {
			copyHeaders(req.Header, r.Header)
			req.ContentLength = int64(len(body))
			res.resp, res.err = rt.client.Do(req)
		}
	}
	// Breaker accounting: an attempt whose caller went away says
	// nothing about the replica and never counts against it.
	canceled := ctx.Err() == context.Canceled
	failed := res.failedTransiently() && !canceled
	rep.breaker.Report(failed)
	if failed {
		rep.failures.Add(1)
	}
	return res
}

// relay answers the caller from forward's last attempt. A replica
// response — a success, or the replica's own 502/503/504 verdict with
// its Retry-After — is copied through: headers (hop-by-hop stripped),
// an X-Route-Replica marker, then the body, flushed per write for
// event streams so feed events traverse the router without buffering
// delay. An attempt that failed in transport becomes 502. Shutdown
// severs relayed event streams, so drain is bounded rather than
// waiting out long-lived feeds; their subscribers reconnect and resume.
func (rt *Router) relay(w http.ResponseWriter, res attemptResult, sse bool) {
	defer res.cancel()
	if res.resp == nil {
		rt.met.failed.Add(1)
		writeError(w, http.StatusBadGateway, "upstream_unreachable",
			fmt.Sprintf("all attempts failed: %v", res.err))
		return
	}
	defer res.resp.Body.Close()
	copyHeaders(w.Header(), res.resp.Header)
	w.Header().Set("X-Route-Replica", res.rep.url)
	w.WriteHeader(res.resp.StatusCode)
	rt.met.relayed.Add(1)
	if sse {
		defer context.AfterFunc(rt.life, res.cancel)()
		flushCopy(w, res.resp.Body)
		return
	}
	io.Copy(w, res.resp.Body)
}

// flushCopy streams src to w, flushing after every read so SSE events
// reach the subscriber as they happen.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// hopByHop are connection-scoped headers that must not cross the proxy
// (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst[k] = append(dst[k], v)
		}
	}
	for _, h := range hopByHop {
		dst.Del(h)
	}
}

// proxyDocList answers GET /v1/docs by asking every replica for its
// listing and keeping each key only from its ring owner: a copy on any
// other replica (written there directly, bypassing the router) is not
// the document the router serves. The listing is complete or it fails:
// a replica that is not live or does not answer makes the whole
// listing 503 owner_unavailable, never a silently partial list.
func (rt *Router) proxyDocList(w http.ResponseWriter, r *http.Request) {
	type doc struct {
		key string
		raw json.RawMessage
	}
	var docs []doc
	for u := range rt.reps {
		res, n := rt.forward(r, []string{u}, nil, 1, false)
		var payload struct {
			Docs []json.RawMessage `json:"docs"`
		}
		ok := n > 0 && res.resp != nil && res.resp.StatusCode == http.StatusOK &&
			json.NewDecoder(res.resp.Body).Decode(&payload) == nil
		res.discard()
		if !ok {
			rt.ownerUnavailable(w, "replica "+u+" did not answer the listing")
			return
		}
		for _, raw := range payload.Docs {
			var meta struct {
				Key string `json:"key"`
			}
			if json.Unmarshal(raw, &meta) == nil && rt.ring.Owner("doc:"+meta.Key) == u {
				docs = append(docs, doc{meta.Key, raw})
			}
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].key < docs[j].key })
	merged := make([]json.RawMessage, len(docs))
	for i, d := range docs {
		merged[i] = d.raw
	}
	rt.met.relayed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Docs []json.RawMessage `json:"docs"`
	}{Docs: merged})
}

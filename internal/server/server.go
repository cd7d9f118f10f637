package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	runtimepprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ladiff"
	"ladiff/internal/lderr"
	"ladiff/internal/obs"
	"ladiff/internal/sched"
	"ladiff/internal/store"
)

// Config tunes one Server. The zero value is usable: every field has a
// production-minded default applied by New.
type Config struct {
	// MaxConcurrent bounds the number of diffs/patches executing at
	// once. 0 means GOMAXPROCS — a diff is CPU-bound, so more workers
	// than cores only adds contention.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot before the
	// server sheds load with 429. 0 means 64.
	MaxQueue int
	// DefaultTimeout is the per-request deadline applied when the
	// request does not ask for one. 0 means 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. 0 means 30s.
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body; larger bodies get 413.
	// 0 means 8 MiB.
	MaxBodyBytes int64
	// MaxTreeNodes caps the parsed size of either input document,
	// enforced while the tree is built; larger trees get 413 at the
	// first node past the limit. 0 means 200_000.
	MaxTreeNodes int
	// MaxTreeDepth caps the depth of either input document, enforced
	// while the tree is built; deeper trees get 413. 0 means 10_000.
	MaxTreeDepth int
	// MatchWorkBudget bounds the matching phase's logical work (§8
	// r1+r2 units) per request. Budgeted "simple"/"zs" matcher requests
	// that exhaust it fall back to FastMatch and are marked degraded;
	// budgeted FastMatch exhaustion fails the request as over budget.
	// 0 means unlimited.
	MatchWorkBudget int64
	// DefaultEngine is the matching engine used when a request does not
	// name one in its "matcher" field: "fast", "simple", or "zs".
	// Empty means "fast". An unknown name is replaced with
	// "fast" by New (a misconfigured default must not brick every
	// request); explicit per-request names are still validated strictly.
	DefaultEngine string
	// PruneIdentical turns on the fingerprint ladder for every diff
	// request: the Merkle identical-subtree pruning pass before the
	// label rounds and the root-hash short circuit for unchanged
	// documents. Off by default — the disabled mode computes no
	// fingerprints and is byte-identical to the pre-ladder server.
	// Individual requests can opt in with "prune": true regardless.
	PruneIdentical bool
	// DiffCacheEntries bounds the LRU cache of diff responses, in
	// entries: a repeat of byte-identical documents under the same
	// options is served without parsing or re-running the pipeline,
	// and a byte-identical /v1/diff body without decoding it. Each
	// entry is indexed by a source key and a body key, both SHA-256
	// digests of request bytes, but counts once. 0 (the default)
	// disables caching entirely.
	DiffCacheEntries int
	// Store enables the versioned-document endpoints (/v1/docs/...):
	// ingest, version listing, checkout, version diff, and SSE change
	// feeds. Nil leaves the endpoints unmounted. The server does not own
	// the store's lifecycle beyond feeds: Shutdown closes every feed
	// subscription (so handlers drain), but closing the store itself —
	// and its persistence log — is the embedder's job.
	Store *store.Store
	// FeedHeartbeat is the interval between SSE keepalive comments on an
	// idle feed, keeping intermediaries from timing the stream out.
	// 0 means 15s.
	FeedHeartbeat time.Duration
	// MaxFeeds bounds concurrently open feed subscriptions across all
	// documents; excess subscribers get 429. Feeds are long-lived and
	// deliberately do not hold admission slots (a thousand idle feeds
	// must not starve diff traffic), so they need their own bound.
	// 0 means 256.
	MaxFeeds int
	// MaxBatchItems bounds how many pairs one POST /v1/diff/batch may
	// carry; larger batches get 413. 0 means 64.
	MaxBatchItems int
	// MaxBatchBytes caps the aggregate size of the old+new documents
	// across one batch's items (decoded, so it composes with
	// MaxBodyBytes which caps the raw body); larger batches get 413.
	// 0 means MaxBodyBytes.
	MaxBatchBytes int64
	// MaxJobs bounds the async-job store: queued + running jobs plus
	// terminal results retained for polling. Submissions beyond it get
	// 429. 0 means 256.
	MaxJobs int
	// JobTTL is how long a finished job's result stays pollable before
	// the store sweeps it. 0 means 5 minutes.
	JobTTL time.Duration
	// WebhookBackoff is the base delay between a job's completion
	// webhook attempts, doubling per retry. 0 means 250ms.
	WebhookBackoff time.Duration
	// Logger receives structured access logs. Nil means slog.Default.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxTreeNodes <= 0 {
		c.MaxTreeNodes = 200_000
	}
	if c.MaxTreeDepth <= 0 {
		c.MaxTreeDepth = 10_000
	}
	if _, ok := ladiff.MatcherByName(c.DefaultEngine); !ok {
		c.DefaultEngine = ""
	}
	if c.FeedHeartbeat <= 0 {
		c.FeedHeartbeat = 15 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = c.MaxBodyBytes
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 5 * time.Minute
	}
	if c.WebhookBackoff <= 0 {
		c.WebhookBackoff = 250 * time.Millisecond
	}
	if c.MaxFeeds <= 0 {
		c.MaxFeeds = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the diff-serving subsystem: HTTP handlers plus the shared
// machinery under them — the scheduling core (admission slots, bounded
// queue, drain state), metrics, and buffer pooling. Construct with New,
// mount Handler (and optionally DebugHandler) on listeners, and call
// Shutdown to drain.
type Server struct {
	cfg Config
	// core is the shared scheduling core: every unit of work the server
	// executes — single diffs, patches, store requests, batch items, and
	// async jobs — acquires its slots and registers against its drain
	// state, so their aggregate concurrency is bounded together.
	core *sched.Core
	met  *Metrics
	log  *slog.Logger
	// cache is the diff LRU, looked up by /v1/diff body bytes before
	// the decode and by source bytes before the parse; nil when
	// Config.DiffCacheEntries is 0.
	cache *diffCache
	// jobs is the async-job store behind /v1/jobs; nil only before New
	// finishes.
	jobs *sched.JobStore

	// feeds counts open feed subscriptions against Config.MaxFeeds.
	feeds atomic.Int64

	// webhooks tracks in-flight completion-webhook deliveries so
	// Shutdown can wait them out; webhookCtx aborts their retry loops.
	webhooks      sync.WaitGroup
	webhookCtx    context.Context
	webhookCancel context.CancelFunc

	// testGate, when non-nil, blocks every handler after admission
	// until the channel is closed — a deterministic hook for the
	// overload and drain tests (same package only).
	testGate chan struct{}
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, met: &Metrics{}, log: cfg.Logger}
	s.core = sched.New(sched.Config{
		Slots:       cfg.MaxConcurrent,
		Queue:       cfg.MaxQueue,
		QueuedGauge: &s.met.Queued,
	})
	s.jobs = sched.NewJobStore(s.core, sched.JobConfig{
		Max:      cfg.MaxJobs,
		TTL:      cfg.JobTTL,
		Counters: &s.met.Jobs,
	})
	s.webhookCtx, s.webhookCancel = context.WithCancel(context.Background())
	if cfg.DiffCacheEntries > 0 {
		s.cache = newDiffCache(cfg.DiffCacheEntries, s.met)
		s.met.CacheCapacity.Store(int64(cfg.DiffCacheEntries))
	}
	return s
}

// Metrics exposes the server's counter set (used by tests and by
// embedders that scrape programmatically).
func (s *Server) Metrics() *Metrics { return s.met }

// Handler returns the service mux: the v1 API plus health and metrics,
// wrapped in the panic-containment and access-log middleware. Every /v1
// route runs inside lifecycle.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(pattern string, h apiHandler) { mux.HandleFunc(pattern, s.lifecycle(h)) }
	api("POST /v1/diff", s.handleDiff)
	api("POST /v1/diff/batch", s.handleDiffBatch)
	api("POST /v1/patch", s.handlePatch)
	api("POST /v1/jobs/diff", s.handleJobSubmit)
	api("GET /v1/jobs/{id}", s.handleJobGet)
	api("DELETE /v1/jobs/{id}", s.handleJobCancel)
	if s.cfg.Store != nil {
		api("GET /v1/docs", s.handleDocList)
		api("PUT /v1/docs/{key}", s.handleDocPut)
		api("GET /v1/docs/{key}/versions", s.handleDocVersions)
		api("GET /v1/docs/{key}/versions/{n}", s.handleDocCheckout)
		api("GET /v1/docs/{key}/diff", s.handleDocDiff)
		api("GET /v1/docs/{key}/feed", s.handleDocFeed)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.accessLog(s.observe(s.recoverPanics(mux)))
}

// apiHandler is a /v1 handler: it writes its own success response and
// returns its failure, if any, for lifecycle to write.
type apiHandler func(http.ResponseWriter, *http.Request) *ItemError

// lifecycle is the one request lifecycle of every /v1 route: it counts
// the request in requests_total and refuses it with 503 draining once
// drain has begun; otherwise it holds the scheduling core's drain gate
// until h returns, so Shutdown waits the request out, and writes the
// failure h returns. A handler that does CPU work also enters a worker
// slot (see enter).
func (s *Server) lifecycle(h apiHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.Requests.Add(1)
		if !s.core.Begin() {
			writeItemError(w, s.draining())
			return
		}
		defer s.core.End()
		if ierr := h(w, r); ierr != nil {
			writeItemError(w, ierr)
		}
	}
}

// observe is the observability middleware: when the obs layer is
// armed it assigns (or propagates) the request id, attaches pprof
// labels so CPU profiles segment by request, and wraps the request in
// a trace whose root span the handlers and the engine hang phase
// spans from. The finished trace is offered to the slow-trace ring.
// Disabled cost is one atomic load; the middleware sits outside
// recoverPanics, so a contained panic still finishes its trace (as a
// 500) on the way out.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.Enabled() {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		tr, ctx := obs.StartTrace(r.Context(), r.Method+" "+r.URL.Path, id)
		if tr == nil { // disarmed since the check above
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w}
		labels := runtimepprof.Labels("ladiff_request_id", id, "ladiff_path", r.URL.Path)
		runtimepprof.Do(ctx, labels, func(ctx context.Context) {
			next.ServeHTTP(rec, r.WithContext(ctx))
		})
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		tr.Root.Int("http_status", int64(rec.status))
		if rec.status >= 400 {
			tr.SetError(fmt.Sprintf("http %d", rec.status))
		}
		tr.Finish()
		obs.Offer(tr)
	})
}

// recoverPanics is the per-request panic containment layer: a panic
// anywhere below it is converted into a 500 with the stack logged and
// the Panics counter bumped — one bad request must never take the
// daemon down. The engine entry points have their own recovery (panics
// there surface as lderr.ErrInternal errors and never reach here); this
// layer catches everything else: render code, handler logic, injected
// chaos panics. http.ErrAbortHandler is re-raised — it is the sanctioned
// way to abort a response, not a failure. The handler's own defers
// (admission release, in-flight accounting) run during unwinding, so
// counters stay coherent across a contained panic.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			err := lderr.Recovered("server", v)
			s.met.Panics.Add(1)
			s.log.Error("panic contained",
				"method", r.Method,
				"path", r.URL.Path,
				"err", err.Error(),
				"stack", string(lderr.StackOf(err)),
			)
			// Best effort, written raw: this is the containment layer of
			// last resort, so it must not route back through writeJSON
			// (whose own chaos checkpoint may be what just panicked). If
			// the handler already started the response body, the status
			// is gone; appending an error envelope is still more
			// diagnosable than silence. A secondary panic here (broken
			// connection) is swallowed — the response is already lost.
			func() {
				defer func() { _ = recover() }()
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = w.Write([]byte(`{"error":{"code":"internal","message":"internal server error"}}` + "\n"))
			}()
		}()
		next.ServeHTTP(w, r)
	})
}

// DebugHandler returns the debug mux (net/http/pprof), meant for a
// separate loopback-only listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return mux
}

// handleTraces serves the slow/errored-trace ring as JSON: capacity,
// retention accounting, and the retained traces in priority order.
// With observability disabled (or no ring armed) it serves an empty
// document rather than an error, so scrapers need no special case.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(obs.SnapshotTraces())
}

// BeginDrain flips the server into draining mode: /readyz starts
// failing (so load balancers stop routing here) and new API requests
// are refused with 503, while admitted requests run to completion.
// /healthz stays 200 — the process is still alive and finishing work.
func (s *Server) BeginDrain() { s.core.BeginDrain() }

// Shutdown drains the server gracefully: it begins draining, closes
// every open feed subscription (feed handlers see their event channel
// close and exit), stops the async-job store (queued and running jobs
// are canceled — the store is in-memory, so there is nothing to hand
// off — and canceled jobs never deliver webhooks), aborts in-flight
// webhook retry loops, then waits until every in-flight request has
// finished or ctx ends, returning ctx.Err() in the latter case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.cfg.Store != nil {
		s.cfg.Store.CloseFeeds()
	}
	if err := s.jobs.Shutdown(ctx); err != nil {
		return err
	}
	// Jobs that finished before the drain may still be retrying their
	// webhooks; cut them off and wait for the delivery goroutines.
	s.webhookCancel()
	webhooksDone := make(chan struct{})
	go func() {
		s.webhooks.Wait()
		close(webhooksDone)
	}()
	select {
	case <-webhooksDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.core.Drain(ctx)
}

// statusRecorder captures the status code a handler wrote so the
// access log can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer so http.ResponseController can
// reach Flush/SetWriteDeadline through the middleware layers — the SSE
// feed handler depends on this.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// accessLog wraps next with a structured per-request log line.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_us", time.Since(start).Microseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

// bufPool recycles body-read buffers across requests so steady-state
// serving allocates no per-request read buffer. The obs gauges count
// checkouts and misses (recycles = gets − allocs); both updates are
// gated on the armed check so the disabled path pays one atomic load.
var bufPool = sync.Pool{
	New: func() any {
		if obs.Enabled() {
			obs.PoolAllocs.Add(1)
		}
		return new(bytes.Buffer)
	},
}

func getBuf() *bytes.Buffer {
	if obs.Enabled() {
		obs.PoolGets.Add(1)
	}
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	// Don't pool pathological buffers: a single huge request must not
	// pin its allocation forever.
	if b.Cap() > 1<<20 {
		return
	}
	bufPool.Put(b)
}

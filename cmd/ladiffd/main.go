// Command ladiffd serves the LaDiff change-detection pipeline over
// HTTP: POST /v1/diff, /v1/diff/batch and /v1/patch, async jobs under
// /v1/jobs/diff, GET /healthz, /readyz and
// /metrics, with pprof on a separate debug listener — plus, with
// -store, the versioned document store under /v1/docs (ingest,
// checkout, version diffs, and SSE change feeds; see DESIGN.md §14).
// With -route it runs as a consistent-hash routing tier over a set of
// replicas instead (see DESIGN.md §15). It is the serving counterpart
// of the batch cmd/ladiff tool — see DESIGN.md §8 for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/obs"
	"ladiff/internal/route"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/tree"
)

func main() {
	addr := flag.String("addr", ":8044", "service listen address")
	debugAddr := flag.String("debug-addr", "", "debug (pprof) listen address; empty disables the debug listener")
	maxConcurrent := flag.Int("max-concurrent", 0, "max diffs executing at once (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a slot before 429 (0 = 64)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 5s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 30s)")
	maxBody := flag.Int64("max-body", 0, "max request body bytes (0 = 8MiB)")
	maxNodes := flag.Int("max-nodes", 0, "max nodes per parsed document (0 = 200000)")
	maxDepth := flag.Int("max-depth", 0, "max depth per parsed document (0 = 10000)")
	matchBudget := flag.Int64("match-budget", 0, "match work budget per request in §8 work units (0 = unlimited)")
	engine := flag.String("engine", "", "matching engine for requests that don't name one: fast (default), simple, or zs")
	prune := flag.Bool("prune", false, "claim fingerprint-identical subtrees wholesale on every diff (per-request opt-in stays available without it)")
	cacheEntries := flag.Int("cache", 0, "diff cache capacity in entries, looked up by the SHA-256 of the request body and of the source bytes (0 = disabled)")
	maxBatchItems := flag.Int("max-batch-items", 0, "max items per /v1/diff/batch request (0 = 64)")
	maxBatchBytes := flag.Int64("max-batch-bytes", 0, "max aggregate document bytes per batch (0 = max-body)")
	maxJobs := flag.Int("max-jobs", 0, "max async jobs resident in the job store before 429 (0 = 256)")
	jobTTL := flag.Duration("job-ttl", 0, "how long finished jobs stay pollable before expiry (0 = 5m)")
	storeOn := flag.Bool("store", false, "enable the versioned document store (/v1/docs endpoints and change feeds)")
	storeLog := flag.String("store-log", "", "append-only persistence log for the store; empty keeps versions in memory only (implies -store)")
	storeCheckpoint := flag.Int("store-checkpoint", 0, "snapshot the store every N versions, bounding checkout replay (0 = 8; negative disables)")
	storeFeedBuffer := flag.Int("store-feed-buffer", 0, "per-subscriber feed event buffer; a slower consumer drops events (0 = 16)")
	storeMaxFeeds := flag.Int("store-max-feeds", 0, "max concurrently open feed subscriptions before 429 (0 = 256)")
	storeHeartbeat := flag.Duration("store-heartbeat", 0, "SSE keepalive interval on idle feeds (0 = 15s)")
	routeReplicas := flag.String("route", "", "comma-separated replica base URLs; serve as the consistent-hash routing tier over them instead of as a replica (see DESIGN.md §15)")
	routeProbe := flag.Duration("probe-interval", 0, "routing tier: per-replica /readyz probe interval (0 = 1s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	faultSpec := flag.String("fault", "", "arm fault injection: point:mode[:p=P][:delay=D][:bytes=N][,...][;seed=S] (chaos testing only)")
	obsOn := flag.Bool("obs", true, "arm the observability layer: request traces, engine gauges, pprof labels")
	obsTraces := flag.Int("obs-traces", obs.DefaultRingCapacity, "how many slowest/errored request traces the /debug/traces ring retains")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if _, ok := ladiff.MatcherByName(*engine); !ok {
		logger.Error("unknown -engine", "engine", *engine, "want", ladiff.EngineNames())
		os.Exit(2)
	}
	if *obsOn {
		defer obs.Activate(obs.Config{Ring: obs.NewRing(*obsTraces)})()
		logger.Info("observability armed", "trace_ring", *obsTraces)
	}
	if *faultSpec != "" {
		plan, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			logger.Error("bad -fault spec", "error", err)
			os.Exit(2)
		}
		fault.Activate(plan)
		logger.Warn("fault injection armed; this daemon will fail on purpose", "spec", *faultSpec)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *routeReplicas != "" {
		var reps []string
		for _, u := range strings.Split(*routeReplicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, strings.TrimRight(u, "/"))
			}
		}
		if len(reps) == 0 {
			logger.Error("-route needs at least one replica URL")
			os.Exit(2)
		}
		rcfg := route.Config{
			Replicas:      reps,
			ProbeInterval: *routeProbe,
			MaxBodyBytes:  *maxBody,
			Logger:        logger,
		}
		if err := serve(router(rcfg), *addr, "", *drainTimeout, logger, stop, nil); err != nil {
			logger.Error("ladiffd routing tier failed", "error", err)
			os.Exit(1)
		}
		return
	}
	var st *store.Store
	if *storeOn || *storeLog != "" {
		scfg := store.Config{
			CheckpointEvery: *storeCheckpoint,
			Limits:          tree.Limits{MaxNodes: *maxNodes, MaxDepth: *maxDepth},
			FeedBuffer:      *storeFeedBuffer,
		}
		if *storeLog != "" {
			var err error
			if st, err = store.Open(*storeLog, scfg); err != nil {
				logger.Error("opening store log", "path", *storeLog, "error", err)
				os.Exit(1)
			}
			stats := st.Stats()
			logger.Info("store log replayed", "path", *storeLog,
				"docs", stats.Docs, "versions", stats.VersionsTotal)
		} else {
			st = store.New(scfg)
		}
		defer st.Close()
	}
	cfg := server.Config{
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxBodyBytes:     *maxBody,
		MaxTreeNodes:     *maxNodes,
		MaxTreeDepth:     *maxDepth,
		MatchWorkBudget:  *matchBudget,
		DefaultEngine:    *engine,
		PruneIdentical:   *prune,
		DiffCacheEntries: *cacheEntries,
		MaxBatchItems:    *maxBatchItems,
		MaxBatchBytes:    *maxBatchBytes,
		MaxJobs:          *maxJobs,
		JobTTL:           *jobTTL,
		Store:            st,
		FeedHeartbeat:    *storeHeartbeat,
		MaxFeeds:         *storeMaxFeeds,
		Logger:           logger,
	}
	if err := serve(replica(cfg), *addr, *debugAddr, *drainTimeout, logger, stop, nil); err != nil {
		logger.Error("ladiffd failed", "error", err)
		os.Exit(1)
	}
}

// service is one way ladiffd serves: its handler, the drain that
// refuses new work and waits out admitted work, an optional debug
// handler, and the log line that announces the listener.
type service struct {
	handler http.Handler
	drain   func(context.Context) error
	debug   http.Handler // served on the debug address; nil serves none
	name    string       // message of the listening log line
	attrs   []any        // attributes of that line after the address
}

// replica serves the diff pipeline, and the document store when cfg has
// one; pprof and the trace ring go on the debug listener.
func replica(cfg server.Config) service {
	srv := server.New(cfg)
	return service{srv.Handler(), srv.Shutdown, srv.DebugHandler(), "ladiffd listening", nil}
}

// router serves the routing tier over cfg.Replicas. Its drain flips
// /readyz to 503 so load balancers stop sending, stops the probers and
// severs open feed streams before it waits out admitted requests.
func router(cfg route.Config) service {
	rt := route.New(cfg)
	return service{rt.Handler(), rt.Shutdown, nil, "ladiffd routing tier listening",
		[]any{"replicas", len(cfg.Replicas)}}
}

// serve runs svc until a signal arrives on stop, then drains
// gracefully: new requests are refused, admitted ones finish (bounded
// by drainTimeout), and the listeners close. svc's debug handler, if
// any, listens on debugAddr unless it is empty. ready, when non-nil,
// receives the bound service address once listening — how tests using
// port 0 learn where to connect.
func serve(svc service, addr, debugAddr string, drainTimeout time.Duration, logger *slog.Logger, stop <-chan os.Signal, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service listener: %w", err)
	}
	hs := &http.Server{Handler: svc.handler, ReadHeaderTimeout: 10 * time.Second}

	var dbg *http.Server
	if svc.debug != nil && debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg = &http.Server{Handler: svc.debug, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dbg.Serve(dln) }()
		logger.Info("debug listener up", "addr", dln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	logger.Info(svc.name, append([]any{"addr", ln.Addr().String()}, svc.attrs...)...)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", fmt.Sprint(sig))
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain first (refuse new work, wait for in-flight requests), then
	// close the HTTP side.
	if err := svc.drain(ctx); err != nil {
		logger.Warn("drain incomplete", "error", err)
	}
	if dbg != nil {
		_ = dbg.Close()
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logger.Info("shutdown complete")
	return nil
}

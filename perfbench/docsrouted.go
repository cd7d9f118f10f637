package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/obs"
	"ladiff/internal/route"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/tree"
)

// docs-routed drives route.New over two in-process replicas, each a
// server.New with a WAL-backed store.Open store at the default
// checkpoint interval (8). The log is written without fsync: that is the
// store's own flush policy. Set-up preloads docsPages html pages ×
// docsVersions versions through the router. The load is one request
// client, with one op in flight, beside one SSE feed subscriber on the
// hottest key:
//
//	50% checkout of a uniformly random historical version
//	15% version diff to the head from 1..7 versions below it
//	20% ingest of a lightly perturbed new version
//	15% re-PUT of unchanged content (the store's no-op ingest path)
//
// The client runs docsBurst ops back to back, each timed from its own
// start, and then waits for the next burst's slot, so it does docsRate
// ops/s. Every ingest keeps a version: back to back for the whole run,
// faster code would build a longer history within the window and hold
// more memory, while paced, a run of one seed and length does the same
// ops on any build. No op's work grows with that history either: a
// checkout replays fewer scripts than the checkpoint interval at any
// depth, and a diff spans a fixed number of versions below the head.

const (
	docsPages       = 16
	docsVersions    = 8
	docsWarmupOps   = 600
	docsZipfS       = 1.1
	docsSmallPages  = 4
	docsSmallRate   = 800
	docsMaxSections = 5
)

// docsRate is the request client's pace in ops/s. At the seed commit it
// keeps the client busy about a third of the time.
const (
	docsRate  = 400
	docsBurst = 40
)

type docsKind int

const (
	opCheckout docsKind = iota
	opDiff
	opIngest
	opNoop
)

var docsKindNames = []string{"checkout", "diff", "ingest", "noop_ingest"}

// docsOp is one planned request; the plan is drawn from the seed alone,
// so the same seed replays the same op sequence.
type docsOp struct {
	kind         docsKind
	key          int
	v, from, to  int
	src          string
	nodes        int
	tree         *tree.Tree
	id           string
	storeElapsed time.Duration
}

type docsRouted struct {
	rate   float64
	dir    string
	stores [2]*store.Store
	srvs   [2]*server.Server
	reps   [2]*loopback
	rt     *route.Router
	front  *loopback
	client *http.Client
	cur    atomic.Pointer[tracer]
	deobs  func()

	rng   *rand.Rand
	zipf  *rand.Zipf
	words wording
	keys  []string
	// trees holds each key's latest version before wording; srcs its
	// rendering.
	trees []*tree.Tree
	srcs  []string
	acks  [][]string // acks[k][v-1] is the fingerprint acknowledged for version v
	seq   int

	feed docsFeed

	exactCounters map[string]float64
	// firstErr is the first failed op's error, reported with the run.
	firstErr error
	// lastEnd is when the last response body was read: an op's timed
	// part ends there, before its answer is decoded and checked.
	lastEnd time.Time

	// traced segment
	traced        []docsOp
	logSnap       []byte
	rtBefore      route.Snapshot
	rtAfter       route.Snapshot
	scrapeBefore  [2]server.MetricsSnapshot
	scrapeAfter   [2]server.MetricsSnapshot
	feedMark      int
	feedDropsMark int64
}

// docsFeed is the SSE subscriber's view: when each version of the feed
// key was sent, and when (and in what order) its events arrived.
type docsFeed struct {
	cancel  context.CancelFunc
	done    chan struct{}
	mu      sync.Mutex
	sent    map[int]time.Time
	delays  []float64
	last    int
	errs    int
	dropped int64
}

func storeConfig() store.Config { return store.Config{} }

func setupDocsRouted(o options) (bench, error) {
	pages, rate := docsPages, float64(docsRate)
	if o.small {
		pages, rate = docsSmallPages, docsSmallRate
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "docs-routed-")
	if err != nil {
		return nil, err
	}
	b := &docsRouted{rate: rate, dir: dir, rng: rand.New(rand.NewSource(o.seed)), words: newWording(o.seed)}
	b.zipf = rand.NewZipf(rand.New(rand.NewSource(o.seed+1)), docsZipfS, 1, uint64(pages-1))
	b.feed.sent = map[int]time.Time{}
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	if err := b.preload(pages); err != nil {
		b.close()
		return nil, err
	}
	if err := b.startFeed(); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: the op stream itself, untimed.
	for i := 0; i < docsWarmupOps; i++ {
		op := b.plan()
		if err := b.do(&op, nil); err != nil {
			b.close()
			return nil, fmt.Errorf("docs-routed: warm-up: %w", err)
		}
	}
	return b, nil
}

// start brings up the two replicas and the router, each on its own
// loopback listener.
func (b *docsRouted) start() error {
	b.deobs = obs.Activate(obs.Config{Ring: obs.NewRing(obs.DefaultRingCapacity)})
	var urls []string
	for i := range b.stores {
		st, err := store.Open(filepath.Join(b.dir, fmt.Sprintf("replica-%d.log", i)), storeConfig())
		if err != nil {
			return err
		}
		b.stores[i] = st
		b.srvs[i] = server.New(server.Config{Store: st, Logger: discardLogger()})
		lb, err := serveLoopback(traceHandler("replica", &b.cur, b.srvs[i].Handler()))
		if err != nil {
			return err
		}
		b.reps[i] = lb
		urls = append(urls, lb.url)
	}
	b.rt = route.New(route.Config{Replicas: urls, Logger: discardLogger()})
	front, err := serveLoopback(traceHandler("router", &b.cur, b.rt.Handler()))
	if err != nil {
		return err
	}
	b.front = front
	b.client = newClient(1)
	return nil
}

// preload ingests every page's versions through the router, then checks
// every version out once (the verification pass) and records the exact
// counters.
func (b *docsRouted) preload(pages int) error {
	var ops, nodes int64
	for k := 0; k < pages; k++ {
		key := fmt.Sprintf("page-%02d", k)
		b.keys = append(b.keys, key)
		t := document(gen.DocParams{Seed: 1000 + int64(k), Sections: 2 + k%docsMaxSections})
		b.trees = append(b.trees, nil)
		b.srcs = append(b.srcs, "")
		b.acks = append(b.acks, nil)
		for v := 1; v <= docsVersions; v++ {
			if v > 1 {
				var err error
				if t, err = perturb(t, lightEdit(int64(k*docsVersions+v))); err != nil {
					return err
				}
			}
			src, n, err := renderChecked("html", b.words.text(t))
			if err != nil {
				return err
			}
			op := docsOp{kind: opIngest, key: k, src: src, nodes: n, tree: t}
			resp, err := b.put(&op)
			if err != nil {
				return fmt.Errorf("docs-routed: preload %s v%d: %w", key, v, err)
			}
			ops += int64(resp.Ops.Total())
			nodes += int64(n)
		}
	}
	before := b.storeStats()
	for k := range b.keys {
		for v := 1; v <= len(b.acks[k]); v++ {
			op := docsOp{kind: opCheckout, key: k, v: v}
			if err := b.do(&op, nil); err != nil {
				return fmt.Errorf("docs-routed: verification: %w", err)
			}
		}
	}
	after := b.storeStats()
	logBytes, err := b.logBytes()
	if err != nil {
		return err
	}
	versions := float64(after.VersionsTotal)
	b.exactCounters = map[string]float64{
		"store.checkout_replays_per_op": float64(after.CheckoutReplayOps-before.CheckoutReplayOps) / float64(after.CheckoutsTotal-before.CheckoutsTotal),
		"store.log_bytes_per_version":   float64(logBytes) / versions,
		"corpus.nodes_per_op":           float64(nodes) / versions,
		"gen.script_ops":                float64(ops) / float64(int64(pages)*(docsVersions-1)),
	}
	return nil
}

// lightEdit is the perturbation of one new version: one sentence
// rewritten, one inserted, one deleted, so pages keep their size. Like
// the pages' shapes, it is fixed by position (page and version, or the
// op's place in the stream); the seed picks the words, the op mix and
// the keys.
func lightEdit(salt int64) gen.PerturbParams {
	return gen.PerturbParams{Seed: 7919 + salt, UpdateSentences: 1, InsertSentences: 1, DeleteSentences: 1}
}

func (b *docsRouted) storeStats() store.Stats {
	var s store.Stats
	for _, st := range b.stores {
		x := st.Stats()
		s.VersionsTotal += x.VersionsTotal
		s.CheckoutsTotal += x.CheckoutsTotal
		s.CheckoutReplayOps += x.CheckoutReplayOps
		s.FeedDroppedTotal += x.FeedDroppedTotal
	}
	return s
}

// logBytes is the size of both replica logs with each record's
// wall-clock timestamp left out, so it repeats exactly for a seed.
func (b *docsRouted) logBytes() (int64, error) {
	var n int64
	for i := range b.stores {
		data, err := os.ReadFile(filepath.Join(b.dir, fmt.Sprintf("replica-%d.log", i)))
		if err != nil {
			return 0, err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			n += int64(len(line))
			if j := bytes.Index(line, []byte(`"time":"`)); j >= 0 {
				if k := bytes.IndexByte(line[j+8:], '"'); k >= 0 {
					n -= int64(k)
				}
			}
		}
	}
	return n, nil
}

// plan draws the next op from the seeded stream.
func (b *docsRouted) plan() docsOp {
	b.seq++
	k := int(b.zipf.Uint64())
	latest := len(b.acks[k])
	r := b.rng.Intn(100)
	op := docsOp{key: k, id: strconv.Itoa(b.seq)}
	switch {
	case r < 50:
		op.kind, op.v = opCheckout, 1+b.rng.Intn(latest)
	case r < 65:
		// Up to the head from at most docsVersions-1 versions below it,
		// so a diff composes 1..7 stored scripts however long the
		// history the run has built (every page has ≥ docsVersions).
		op.kind, op.to = opDiff, latest
		op.from = latest - 1 - b.rng.Intn(docsVersions-1)
	case r < 85:
		t, err := perturb(b.trees[k], lightEdit(int64(1_000_000+b.seq)))
		if err != nil {
			panic(err) // gen.Perturb fails only on an empty tree
		}
		src, n, _ := render("html", b.words.text(t))
		op.kind, op.src, op.nodes, op.tree = opIngest, src, n, t
	default:
		op.kind, op.src, op.nodes = opNoop, b.srcs[k], b.trees[k].Len()
	}
	return op
}

// do sends op through the router and checks its answer.
func (b *docsRouted) do(op *docsOp, tr *tracer) error {
	switch op.kind {
	case opIngest, opNoop:
		_, err := b.put(op)
		return err
	}
	key := b.keys[op.key]
	var path string
	if op.kind == opCheckout {
		path = fmt.Sprintf("/v1/docs/%s/versions/%d", key, op.v)
	} else {
		path = fmt.Sprintf("/v1/docs/%s/diff?from=%d&to=%d", key, op.from, op.to)
	}
	body, err := b.send(op.id, http.MethodGet, path, nil, tr)
	if err != nil {
		return err
	}
	if op.kind == opCheckout {
		var got server.DocCheckoutResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Version != op.v || got.Fingerprint != b.acks[op.key][op.v-1] {
			return fmt.Errorf("checkout %s v%d: fingerprint %s, acknowledged %s", key, op.v, got.Fingerprint, b.acks[op.key][op.v-1])
		}
		return nil
	}
	var got server.DocDiffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Ops != len(got.Script) || got.From != op.from || got.To != op.to {
		return fmt.Errorf("diff %s %d..%d: answered %d..%d with %d ops for a %d-op script", key, op.from, op.to, got.From, got.To, got.Ops, len(got.Script))
	}
	return nil
}

// put ingests op's content and checks the acknowledgement: a new
// version for an ingest, the unchanged head for a re-PUT.
func (b *docsRouted) put(op *docsOp) (server.DocPutResponse, error) {
	var resp server.DocPutResponse
	k := op.key
	req, err := json.Marshal(server.DocPutRequest{Format: "html", Content: op.src})
	if err != nil {
		return resp, err
	}
	latest := len(b.acks[k])
	if op.kind == opIngest && k == 0 {
		b.feed.mu.Lock()
		b.feed.sent[latest+1] = time.Now()
		b.feed.mu.Unlock()
	}
	body, err := b.send(op.id, http.MethodPut, "/v1/docs/"+b.keys[k], req, b.cur.Load())
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, err
	}
	if resp.Nodes != op.nodes {
		return resp, fmt.Errorf("ingest parsed %d nodes, want %d", resp.Nodes, op.nodes)
	}
	if op.kind == opNoop {
		if !resp.Noop || resp.Version != latest || resp.Fingerprint != b.acks[k][latest-1] {
			return resp, fmt.Errorf("re-PUT of v%d was not a no-op: %+v", latest, resp)
		}
		return resp, nil
	}
	if resp.Noop || resp.Version != latest+1 {
		return resp, fmt.Errorf("ingest acknowledged v%d (noop %v), want v%d", resp.Version, resp.Noop, latest+1)
	}
	b.acks[k] = append(b.acks[k], resp.Fingerprint)
	b.trees[k], b.srcs[k] = op.tree, op.src
	return resp, nil
}

// send issues one request and returns the body of a 200 answer.
func (b *docsRouted) send(id, method, path string, body []byte, tr *tracer) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, b.front.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", "d"+id)
	}
	sent := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	b.lastEnd = end
	if id != "" {
		tr.add("http", "d"+id, sent, end)
		tr.add(rootSpan, "d"+id, start, end)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// startFeed subscribes to the hottest key's change feed through the
// router and records each change event's delay and order.
func (b *docsRouted) startFeed() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.front.url+"/v1/docs/"+b.keys[0]+"/feed", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := newClient(1).Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("docs-routed: feed subscribe: status %d", resp.StatusCode)
	}
	b.feed.cancel = cancel
	b.feed.done = make(chan struct{})
	go func() {
		defer close(b.feed.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			now := time.Now()
			var ev store.Event
			b.feed.mu.Lock()
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Version <= b.feed.last && ev.Type == store.EventChange {
				b.feed.errs++
			} else {
				if ev.Type == store.EventChange {
					if t, ok := b.feed.sent[ev.Version]; ok {
						b.feed.delays = append(b.feed.delays, ms(now.Sub(t)))
						delete(b.feed.sent, ev.Version)
					}
				}
				b.feed.last = ev.Version
				b.feed.dropped += ev.Dropped
			}
			b.feed.mu.Unlock()
		}
	}()
	return nil
}

func (b *docsRouted) timed(d time.Duration, tr *tracer) (*sample, error) {
	if tr != nil {
		if err := b.markTraced(); err != nil {
			return nil, err
		}
		b.cur.Store(tr)
		defer b.cur.Store(nil)
	}
	b.feed.mu.Lock()
	errsBefore := b.feed.errs
	b.feed.mu.Unlock()
	// Each op is planned once the previous one has ended, so drawing and
	// rendering a new version is not timed.
	op := b.plan()
	lat, late := pacedBursts(int(d.Seconds()*b.rate), docsBurst, b.rate, func(int) (time.Time, bool) {
		err := b.do(&op, tr)
		end := b.lastEnd
		if err != nil && b.firstErr == nil {
			b.firstErr = err
			fmt.Fprintln(os.Stderr, "perfbench: docs-routed: first failed op:", err)
		}
		if tr != nil {
			op.tree = nil
			b.traced = append(b.traced, op)
		}
		op = b.plan()
		return end, err == nil
	})
	if tr != nil {
		b.cur.Store(nil)
		if err := b.markTracedEnd(); err != nil {
			return nil, err
		}
	}
	// A feed event out of version order is a wrong output.
	b.feed.mu.Lock()
	for i := errsBefore; i < b.feed.errs; i++ {
		lat = append(lat, latency(0, false))
	}
	b.feed.mu.Unlock()
	return &sample{lat: lat, late: late}, nil
}

// markTraced snapshots what the traced segment is measured against:
// router and replica counters, feed progress, and the replica logs the
// store replay starts from.
func (b *docsRouted) markTraced() error {
	b.traced = b.traced[:0]
	b.rtBefore = b.rt.Snapshot()
	for i, r := range b.reps {
		m, err := scrape(b.client, r.url)
		if err != nil {
			return err
		}
		b.scrapeBefore[i] = m
	}
	b.logSnap = b.logSnap[:0]
	for i := range b.stores {
		data, err := os.ReadFile(filepath.Join(b.dir, fmt.Sprintf("replica-%d.log", i)))
		if err != nil {
			return err
		}
		b.logSnap = append(b.logSnap, data...)
	}
	b.feed.mu.Lock()
	b.feedMark, b.feedDropsMark = len(b.feed.delays), b.feed.dropped
	b.feed.mu.Unlock()
	return nil
}

func (b *docsRouted) markTracedEnd() error {
	b.rtAfter = b.rt.Snapshot()
	for i, r := range b.reps {
		m, err := scrape(b.client, r.url)
		if err != nil {
			return err
		}
		b.scrapeAfter[i] = m
	}
	return nil
}

// replay times the traced segment's ops directly against a store.Store
// with the replicas' config, opened from the logs as they stood when
// the segment began, so each op meets the same state it met through the
// router.
func (b *docsRouted) replay() error {
	path := filepath.Join(b.dir, "replay.log")
	if err := os.WriteFile(path, b.logSnap, 0o644); err != nil {
		return err
	}
	st, err := store.Open(path, storeConfig())
	if err != nil {
		return fmt.Errorf("docs-routed: opening replay store: %w", err)
	}
	defer st.Close()
	sub, err := st.Subscribe(b.keys[0], store.SubscribeOptions{})
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()
	defer func() { sub.Close(); <-drained }()
	ctx := context.Background()
	for i := range b.traced {
		op := &b.traced[i]
		key := b.keys[op.key]
		start := time.Now()
		switch op.kind {
		case opIngest, opNoop:
			_, err = st.Ingest(ctx, key, "html", op.src)
		case opCheckout:
			_, _, err = st.Checkout(ctx, key, op.v)
		case opDiff:
			_, _, err = st.ComposeDiff(key, op.from, op.to)
		}
		op.storeElapsed = time.Since(start)
		if err != nil {
			return fmt.Errorf("docs-routed: replaying %s on %s: %w", docsKindNames[op.kind], key, err)
		}
	}
	return nil
}

func (b *docsRouted) exact() map[string]float64 { return b.exactCounters }

func (b *docsRouted) layers(tr *tracer, s *sample) (map[string]float64, error) {
	if err := b.replay(); err != nil {
		return nil, err
	}
	// Place each op's replayed store time inside its replica span; any
	// part that does not fit is time the layers fail to explain.
	replicaSpans := tr.byReq("replica")
	var overflow time.Duration
	perKind := make([]time.Duration, len(docsKindNames))
	count := make([]int, len(docsKindNames))
	for _, op := range b.traced {
		perKind[op.kind] += op.storeElapsed
		count[op.kind]++
		rs, ok := replicaSpans["d"+op.id]
		if !ok {
			continue
		}
		d := op.storeElapsed
		if room := rs.end - rs.start; d > room {
			overflow += d - room
			d = room
		}
		tr.addSpan(span{name: "store", req: rs.req, start: rs.start, end: rs.start + d})
	}
	a := tr.analyse()
	out := map[string]float64{}
	for k, name := range docsKindNames {
		if count[k] > 0 {
			out["store."+name+"_ms_per_op"] = ms(perKind[k]) / float64(count[k])
		}
	}
	out["http.self_ms_per_req"] = a.perOp("http")
	out["route.hop_ms_per_req"] = a.perOp("router")
	out["server.exec_ms_per_req"] = a.perOp("store")
	out["server.io_ms_per_req"] = a.perOp("replica")
	out["server.handler_ms_per_req"] = a.perOp("replica") + a.perOp("store")
	x, y := b.rtBefore, b.rtAfter
	out["route.failovers"] = float64(y.Failovers - x.Failovers)
	out["route.retries"] = float64((y.Attempts - x.Attempts) - (y.Requests - x.Requests))
	var rejected, diffs int64
	for i := range b.reps {
		rejected += b.scrapeAfter[i].RejectedQueueTotal - b.scrapeBefore[i].RejectedQueueTotal
		diffs += b.scrapeAfter[i].DiffsTotal - b.scrapeBefore[i].DiffsTotal
	}
	out["sched.rejected_queue"] = float64(rejected)
	for _, p := range []string{"parse", "match", "generate", "render"} {
		var v float64
		for i := range b.reps {
			v += phaseDeltaMS(b.scrapeBefore[i], b.scrapeAfter[i], p, diffs)
		}
		out["server."+p+"_ms_per_req"] = v
	}
	b.feed.mu.Lock()
	out["feed.delay_ms_p50"] = median(b.feed.delays[b.feedMark:])
	out["feed.dropped"] = float64(b.feed.dropped - b.feedDropsMark)
	b.feed.mu.Unlock()
	if a.opTotal > 0 {
		out["anatomy.unexplained_pct"] = 100 * float64(a.self[rootSpan]+overflow) / float64(a.opTotal)
	}
	return out, nil
}

func (b *docsRouted) info() map[string]any {
	versions := 0
	for _, a := range b.acks {
		versions += len(a)
	}
	return map[string]any{
		"loop": "closed, in paced bursts", "burst": docsBurst, "rate_per_s": b.rate, "clients": 1, "feed_subscribers": 1, "pages": len(b.keys),
		"versions": versions, "connections_opened": b.front.accepted.Load(),
		"log_flush":    "write without fsync (store default)",
		"nodes_per_op": b.exactCounters["corpus.nodes_per_op"],
	}
}

func (b *docsRouted) close() error {
	var err error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.feed.cancel != nil {
		b.feed.cancel()
		<-b.feed.done
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.front != nil {
		err = errors.Join(err, b.front.close())
	}
	if b.rt != nil {
		err = errors.Join(err, b.rt.Shutdown(ctx))
	}
	for i := range b.srvs {
		if b.srvs[i] != nil {
			err = errors.Join(err, b.srvs[i].Shutdown(ctx))
		}
		if b.reps[i] != nil {
			err = errors.Join(err, b.reps[i].close())
		}
		if b.stores[i] != nil {
			err = errors.Join(err, b.stores[i].Close())
		}
	}
	if b.deobs != nil {
		b.deobs()
	}
	return errors.Join(err, os.RemoveAll(b.dir))
}

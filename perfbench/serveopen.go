package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ladiff"
	"ladiff/internal/gen"
	"ladiff/internal/obs"
	"ladiff/internal/server"
)

// serve-open drives server.New configured as ladiffd is by default —
// observability armed, GOMAXPROCS admission slots — plus a 64-entry diff
// cache, on a loopback listener. Load is an open loop: op i is due at
// i/rate seconds, sent over at most serveConns connections, and timed
// from its due time. One op is one POST /v1/diff of a small pair drawn
// zipf from a pool four times the cache's capacity, so the run has both
// cache hits and evictions while the engine itself does little.

const (
	serveConns       = 2
	serveCache       = 64
	servePool        = 4 * serveCache
	serveZipfS       = 1.1
	serveWarmupOps   = 600
	serveSmallPool   = 16
	serveSmallCache  = 4
	serveSmallRate   = 800
	serveMaxSections = 5
)

// serveRate is the fixed offered load in ops/s. At the seed commit it
// costs about half of one of the two cores (cpu_ms_per_op ≈ 1.2). It
// sits below half the box because CPU the host takes from a shared VM
// for a few seconds would otherwise push the queue into the median.
const serveRate = 400

var (
	serveFormats = []string{"html", "latex", "text", "xml"}
	serveOutputs = []string{"script", "delta", "marked"}
)

type serveEntry struct {
	body []byte
	// The oracle: ladiff.Diff on the same pair, in process.
	ops        int
	cost       float64
	r1, r2     int64
	nodes      int
	format     string
	outputName string
}

type serveOpen struct {
	rate   float64
	pool   []serveEntry
	zipf   *rand.Zipf
	srv    *server.Server
	lb     *loopback
	client *http.Client
	cur    atomic.Pointer[tracer]
	deobs  func()
	// traced-segment scrapes
	before, after server.MetricsSnapshot
}

func setupServeOpen(o options) (bench, error) {
	pool, cache, rate := servePool, serveCache, float64(serveRate)
	if o.small {
		pool, cache, rate = serveSmallPool, serveSmallCache, serveSmallRate
	}
	b := &serveOpen{rate: rate}
	words := newWording(o.seed)
	for i := 0; i < pool; i++ {
		e, err := serveEntryFor(words, i)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, e)
	}
	b.zipf = rand.NewZipf(rand.New(rand.NewSource(o.seed)), serveZipfS, 1, uint64(pool-1))

	b.deobs = obs.Activate(obs.Config{Ring: obs.NewRing(obs.DefaultRingCapacity)})
	b.srv = server.New(server.Config{DiffCacheEntries: cache, Logger: discardLogger()})
	lb, err := serveLoopback(traceHandler("server", &b.cur, b.srv.Handler()))
	if err != nil {
		b.deobs()
		return nil, err
	}
	b.lb = lb
	b.client = newClient(serveConns)

	// Verification pass: every pool pair once, checked against the oracle.
	for i := range b.pool {
		if _, ok := b.do("v"+strconv.Itoa(i), i, nil); !ok {
			b.close()
			return nil, fmt.Errorf("serve-open: pool pair %d (%s/%s) failed verification", i, b.pool[i].format, b.pool[i].outputName)
		}
	}
	// Warm-up: the zipf stream, closed loop over the same connections.
	warm := b.drawN(serveWarmupOps)
	lat, _ := openLoop(len(warm), 0, serveConns, func(i int) (time.Time, bool) {
		return b.do("w"+strconv.Itoa(i), warm[i], nil)
	})
	for _, l := range lat {
		if math.IsInf(l, 1) {
			b.close()
			return nil, fmt.Errorf("serve-open: warm-up request failed")
		}
	}
	return b, nil
}

// serveEntryFor builds pool pair i. Its shape, edits, format and output
// are a function of i alone and the seed only picks the words, so every
// seed offers the same work at each zipf rank.
func serveEntryFor(words wording, i int) (serveEntry, error) {
	format := serveFormats[i%len(serveFormats)]
	output := serveOutputs[(i/len(serveFormats))%len(serveOutputs)]
	sections := 1 + (i*7)%serveMaxSections
	oldT := document(gen.DocParams{Seed: 100000 + int64(i), Sections: sections, Vocabulary: 2000})
	newT, err := perturb(oldT, gen.Mix(200000+int64(i), 2+sections/2))
	if err != nil {
		return serveEntry{}, err
	}
	oldSrc, on, err := renderChecked(format, words.text(oldT))
	if err != nil {
		return serveEntry{}, err
	}
	newSrc, nn, err := renderChecked(format, words.text(newT))
	if err != nil {
		return serveEntry{}, err
	}
	body, err := json.Marshal(server.DiffRequest{Old: oldSrc, New: newSrc, Format: format, Output: output})
	if err != nil {
		return serveEntry{}, err
	}
	oldP, err := parse(format, oldSrc)
	if err != nil {
		return serveEntry{}, err
	}
	newP, err := parse(format, newSrc)
	if err != nil {
		return serveEntry{}, err
	}
	var st ladiff.MatchStats
	res, err := ladiff.Diff(oldP, newP, ladiff.Options{Match: ladiff.MatchOptions{Stats: &st}})
	if err != nil {
		return serveEntry{}, err
	}
	return serveEntry{
		body: body, ops: len(res.Script), cost: ladiff.UnitCosts().Cost(res.Script),
		r1: st.LeafCompares, r2: st.PartnerChecks, nodes: on + nn,
		format: format, outputName: output,
	}, nil
}

// drawN draws the pool entries of the next n ops.
func (b *serveOpen) drawN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(b.zipf.Uint64())
	}
	return out
}

// do sends one diff request and checks the response against the oracle.
// The op ends when its response body has been read.
func (b *serveOpen) do(id string, entry int, tr *tracer) (time.Time, bool) {
	e := &b.pool[entry]
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, b.lb.url+"/v1/diff", bytes.NewReader(e.body))
	if err != nil {
		return time.Now(), false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	sent := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return time.Now(), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	tr.add("http", id, sent, end)
	tr.add(rootSpan, id, start, end)
	if err != nil || resp.StatusCode != http.StatusOK {
		return end, false
	}
	var got struct {
		Stats server.DiffStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return end, false
	}
	return end, got.Stats.Ops == e.ops && math.Abs(got.Stats.Cost-e.cost) < 1e-9
}

func (b *serveOpen) timed(d time.Duration, tr *tracer) (*sample, error) {
	entries := b.drawN(int(d.Seconds() * b.rate))
	if tr != nil {
		var err error
		if b.before, err = scrape(b.client, b.lb.url); err != nil {
			return nil, err
		}
		b.cur.Store(tr)
		defer b.cur.Store(nil)
	}
	prefix := "u"
	if tr != nil {
		prefix = "t"
	}
	interval := time.Duration(float64(time.Second) / b.rate)
	lat, late := openLoop(len(entries), interval, serveConns, func(i int) (time.Time, bool) {
		return b.do(prefix+strconv.Itoa(i), entries[i], tr)
	})
	if tr != nil {
		b.cur.Store(nil)
		var err error
		if b.after, err = scrape(b.client, b.lb.url); err != nil {
			return nil, err
		}
	}
	return &sample{lat: lat, late: late}, nil
}

func (b *serveOpen) exact() map[string]float64 {
	var nodes, ops, r1, r2 int64
	for _, e := range b.pool {
		nodes += int64(e.nodes)
		ops += int64(e.ops)
		r1 += e.r1
		r2 += e.r2
	}
	n := float64(len(b.pool))
	return map[string]float64{
		"corpus.nodes_per_op":     float64(nodes) / n,
		"gen.script_ops":          float64(ops) / n,
		"match.r1_leaf_compares":  float64(r1) / n,
		"match.r2_partner_checks": float64(r2) / n,
	}
}

func (b *serveOpen) layers(tr *tracer, s *sample) (map[string]float64, error) {
	a := tr.analyse()
	x, y := b.before, b.after
	diffs := y.DiffsTotal - x.DiffsTotal
	exec := 0.0
	out := map[string]float64{}
	for _, p := range []string{"parse", "match", "generate", "render"} {
		v := phaseDeltaMS(x, y, p, diffs)
		out["server."+p+"_ms_per_req"] = v
		exec += v
	}
	out["parse.ms_per_op"] = out["server.parse_ms_per_req"]
	out["match.ms_per_op"] = out["server.match_ms_per_req"]
	out["gen.ms_per_op"] = out["server.generate_ms_per_req"]
	out["render.ms_per_op"] = out["server.render_ms_per_req"]
	handler := a.perOp("server")
	out["server.handler_ms_per_req"] = handler
	out["server.exec_ms_per_req"] = exec
	out["server.io_ms_per_req"] = handler - exec
	out["http.self_ms_per_req"] = a.perOp("http")
	hits, misses := y.Cache.Hits-x.Cache.Hits, y.Cache.Misses-x.Cache.Misses
	if hits+misses > 0 {
		out["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["sched.rejected_queue"] = float64(y.RejectedQueueTotal - x.RejectedQueueTotal)
	out["loadgen.late_ms_p99"] = quantile(sortedCopy(s.late), 0.99)
	out["anatomy.unexplained_pct"] = a.unexplainedPct()
	return out, nil
}

func (b *serveOpen) info() map[string]any {
	return map[string]any{
		"loop": "open", "rate_per_s": b.rate, "clients": serveConns, "pool": len(b.pool),
		"connections_opened": b.lb.accepted.Load(), "nodes_per_op": b.exact()["corpus.nodes_per_op"],
	}
}

func (b *serveOpen) close() error {
	var err error
	if b.lb != nil {
		b.client.CloseIdleConnections()
		err = b.lb.close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = errors.Join(err, b.srv.Shutdown(ctx))
		cancel()
	}
	if b.deobs != nil {
		b.deobs()
	}
	return err
}

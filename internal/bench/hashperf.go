// Fingerprint-ladder performance evidence: the harness behind the
// BENCH_hashing.json artifact. Three engine measurements — the
// sparse-edit win (the ladder's reason to exist), the identical-pair
// short circuit, and the worst-case overhead when pruning can claim
// nothing — plus a serving-layer run showing the server's diff cache
// under a zipf-skewed repeated-document workload.
//
// Every timed repetition re-clones the trees, so the pruned runs pay
// the full fingerprint build cost inside the measurement: the reported
// speedups are end to end, not hash-amortized.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/server"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// HashPerfRun is one timed Diff configuration.
type HashPerfRun struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	// ScriptOps is the emitted script length (pinned equal across
	// configurations of the same pair unless noted).
	ScriptOps int `json:"script_ops"`
	// R1/R2 are the §8 logical work counters of the matching phase.
	R1 int64 `json:"r1_leaf_compares"`
	R2 int64 `json:"r2_partner_checks"`
	// Pruning-pass accounting (zero when pruning is off).
	PrunedSubtrees int64 `json:"pruned_subtrees"`
	PrunedPairs    int64 `json:"pruned_pairs"`
}

// HashPerfComparison is a disabled-vs-enabled pair on one workload.
type HashPerfComparison struct {
	Workload string `json:"workload"`
	// Matcher names the Good Matching algorithm under measurement:
	// "match" is the paper's quadratic Figure 10 algorithm, "fastmatch"
	// the Figure 11 chain-LCS one.
	Matcher  string      `json:"matcher"`
	OldNodes int         `json:"old_nodes"`
	NewNodes int         `json:"new_nodes"`
	Base     HashPerfRun `json:"base"`
	Pruned   HashPerfRun `json:"pruned"`
	// SpeedupX is base time / pruned time (values < 1 mean overhead).
	SpeedupX float64 `json:"speedup_x"`
	// ResultsAgree reports that both configurations produced a script
	// that transforms old into a tree isomorphic to new.
	ResultsAgree bool `json:"results_agree"`
}

// HashCacheResult is the serving-layer cache measurement: the same
// zipf-skewed request stream replayed against a cache-off and a
// cache-on server.
type HashCacheResult struct {
	DocPairs int     `json:"doc_pairs"`
	Requests int     `json:"requests"`
	ZipfS    float64 `json:"zipf_s"`
	// Client-observed mean request latency, µs.
	MeanUSCacheOff int64   `json:"mean_us_cache_off"`
	MeanUSCacheOn  int64   `json:"mean_us_cache_on"`
	SpeedupX       float64 `json:"speedup_x"`
	// The cache-on server's own accounting after the run.
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	ErrorsOff int     `json:"errors_cache_off"`
	ErrorsOn  int     `json:"errors_cache_on"`
}

// HashPerfReport is the full BENCH_hashing.json payload.
type HashPerfReport struct {
	Benchmark string `json:"benchmark"`
	// Sparse is the headline number: the sparse-1pct class (≈1% of
	// sentences edited) under the paper's quadratic Match, where
	// wholesale subtree claiming removes almost all pairing work. The
	// near-linear FastMatch profits too, but modestly — SparseFast
	// reports that honestly.
	Sparse     HashPerfComparison `json:"sparse_1pct"`
	SparseFast HashPerfComparison `json:"sparse_1pct_fastmatch"`
	// Identical is the root-hash short circuit on a byte-identical
	// pair: the pruned run skips matching and generation entirely.
	Identical HashPerfComparison `json:"identical"`
	// Dense is the worst case for the ladder: every region edited, so
	// pruning buys nothing and the enabled run pays the fingerprint
	// build for naught. SpeedupX near 1.0 is the acceptance bar.
	Dense HashPerfComparison `json:"dense_worst_case"`
	// Cache is the serving-layer measurement.
	Cache HashCacheResult `json:"cache_zipf"`
}

// timeDiff times reps full Diff runs of the given options, re-cloning
// both trees each repetition so per-tree caches (fingerprints, Euler
// index) start cold inside the measured window.
func timeDiff(oldT, newT *tree.Tree, opts core.Options, reps int) (HashPerfRun, *core.Result, error) {
	var run HashPerfRun
	var last *core.Result
	stats := &match.Stats{}
	opts.Match.Stats = stats
	var total time.Duration
	for i := 0; i < reps; i++ {
		o, n := oldT.Clone(), newT.Clone()
		*stats = match.Stats{}
		t0 := time.Now()
		res, err := core.Diff(o, n, opts)
		total += time.Since(t0)
		if err != nil {
			return run, nil, err
		}
		last = res
	}
	run.NsPerOp = total.Nanoseconds() / int64(reps)
	run.ScriptOps = len(last.Script)
	run.R1 = stats.LeafCompares
	run.R2 = stats.PartnerChecks
	run.PrunedSubtrees = stats.PrunedSubtrees
	run.PrunedPairs = stats.PrunedPairs
	return run, last, nil
}

// comparePair measures one workload pair disabled-vs-enabled under the
// given matcher.
func comparePair(name string, matcher core.Matcher, oldT, newT *tree.Tree, reps int) (HashPerfComparison, error) {
	cmp := HashPerfComparison{
		Workload: name,
		Matcher:  matcherName(matcher),
		OldNodes: oldT.Len(),
		NewNodes: newT.Len(),
	}
	base, baseRes, err := timeDiff(oldT, newT, core.Options{Matcher: matcher}, reps)
	if err != nil {
		return cmp, fmt.Errorf("bench: hashperf %s base: %w", name, err)
	}
	base.Name = "prune-off"
	pruned, prunedRes, err := timeDiff(oldT, newT, core.Options{
		Matcher: matcher,
		Match:   match.Options{PruneIdentical: true},
	}, reps)
	if err != nil {
		return cmp, fmt.Errorf("bench: hashperf %s pruned: %w", name, err)
	}
	pruned.Name = "prune-on"
	cmp.Base, cmp.Pruned = base, pruned
	if pruned.NsPerOp > 0 {
		cmp.SpeedupX = float64(base.NsPerOp) / float64(pruned.NsPerOp)
	}
	cmp.ResultsAgree = diffTransformsCorrectly(baseRes, newT) && diffTransformsCorrectly(prunedRes, newT)
	return cmp, nil
}

func matcherName(m core.Matcher) string {
	if m == core.SimpleMatcher {
		return "match"
	}
	return "fastmatch"
}

func diffTransformsCorrectly(res *core.Result, newT *tree.Tree) bool {
	if res.RootsWrapped {
		_, err := res.ApplyToOld()
		return err == nil
	}
	return tree.Isomorphic(res.Transformed, newT)
}

// CollectHashPerf runs the fingerprint-ladder benchmark suite. reps 0
// picks a default sized for stable medians without a long run.
func CollectHashPerf(reps int) (*HashPerfReport, error) {
	if reps <= 0 {
		reps = 7
	}
	report := &HashPerfReport{Benchmark: "CollectHashPerf"}

	// Sparse: the headline workload, ≈1% of sentences edited.
	sparseOld := gen.Document(gen.SparseDoc())
	sparsePert, err := gen.Perturb(sparseOld, gen.SparsePert(71))
	if err != nil {
		return nil, fmt.Errorf("bench: hashperf sparse perturb: %w", err)
	}
	if report.Sparse, err = comparePair("sparse-1pct", core.SimpleMatcher, sparseOld, sparsePert.New, reps); err != nil {
		return nil, err
	}
	if report.SparseFast, err = comparePair("sparse-1pct", core.FastMatcher, sparseOld, sparsePert.New, reps); err != nil {
		return nil, err
	}

	// Identical: the short-circuit path, same document twice.
	if report.Identical, err = comparePair("identical", core.FastMatcher, sparseOld, sparseOld.Clone(), reps); err != nil {
		return nil, err
	}

	// Dense: update every sentence (and then some), so fingerprints
	// match almost nowhere and the enabled run is pure overhead.
	denseOld := gen.Document(gen.DocParams{})
	densePert, err := gen.Perturb(denseOld, gen.PerturbParams{
		Seed: 72, UpdateSentences: denseOld.Len(), UpdateFraction: 0.5,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: hashperf dense perturb: %w", err)
	}
	if report.Dense, err = comparePair("dense-worst-case", core.FastMatcher, denseOld, densePert.New, reps); err != nil {
		return nil, err
	}

	cache, err := collectCacheZipf()
	if err != nil {
		return nil, err
	}
	report.Cache = cache
	return report, nil
}

// zipfS skews the E13 cache workload, which E16 replays through the
// router too.
const zipfS = 1.2

// zipfWorkload returns that workload: pairs pre-rendered /v1/diff
// bodies (moderate documents, distinct seeds) and n body indexes drawn
// in one fixed zipf order, so every server it is replayed against
// serves the exact same stream.
func zipfWorkload(pairs, n int) ([][]byte, []int, error) {
	bodies := make([][]byte, pairs)
	for i := range bodies {
		doc := gen.Document(gen.DocParams{Seed: int64(1000 + i), Sections: 6})
		pert, err := gen.Perturb(doc, gen.Mix(int64(2000+i), 12))
		if err != nil {
			return nil, nil, fmt.Errorf("bench: zipf workload pair %d: %w", i, err)
		}
		body, err := json.Marshal(server.DiffRequest{
			Old:    textdoc.Render(doc),
			New:    textdoc.Render(pert.New),
			Format: "text",
		})
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = body
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(pairs-1))
	order := make([]int, n)
	for i := range order {
		order[i] = int(zipf.Uint64())
	}
	return bodies, order, nil
}

// postDiff posts body to url's /v1/diff and drains the answer so the
// connection is reusable. replica is the router's X-Route-Replica
// header, empty when no router answered.
func postDiff(client *http.Client, url string, body []byte) (status int, replica string, err error) {
	resp, err := client.Post(url+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Route-Replica"), nil
}

// collectCacheZipf replays the zipf workload against a cache-off and a
// cache-on server and reports the latency win plus the cache's own hit
// accounting.
func collectCacheZipf() (HashCacheResult, error) {
	const (
		pairs    = 16
		requests = 600
	)
	res := HashCacheResult{DocPairs: pairs, Requests: requests, ZipfS: zipfS}
	bodies, order, err := zipfWorkload(pairs, requests)
	if err != nil {
		return res, err
	}

	replay := func(cacheEntries int) (meanUS int64, errors int, snap server.MetricsSnapshot, err error) {
		srv := server.New(server.Config{
			DiffCacheEntries: cacheEntries,
			Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		// Warm-up outside the timed window.
		if _, _, err := postDiff(client, ts.URL, bodies[0]); err != nil {
			return 0, 0, snap, err
		}
		var total time.Duration
		for _, idx := range order {
			t0 := time.Now()
			status, _, err := postDiff(client, ts.URL, bodies[idx])
			total += time.Since(t0)
			if err != nil || status != http.StatusOK {
				errors++
			}
		}
		return total.Microseconds() / int64(len(order)), errors, srv.Metrics().Snapshot(), nil
	}

	offMean, offErrs, _, err := replay(0)
	if err != nil {
		return res, fmt.Errorf("bench: hashperf cache-off replay: %w", err)
	}
	onMean, onErrs, snap, err := replay(64)
	if err != nil {
		return res, fmt.Errorf("bench: hashperf cache-on replay: %w", err)
	}
	res.MeanUSCacheOff, res.MeanUSCacheOn = offMean, onMean
	res.ErrorsOff, res.ErrorsOn = offErrs, onErrs
	if onMean > 0 {
		res.SpeedupX = float64(offMean) / float64(onMean)
	}
	res.Hits = snap.Cache.Hits
	res.Misses = snap.Cache.Misses
	res.Evictions = snap.Cache.Evictions
	if traffic := snap.Cache.Hits + snap.Cache.Misses; traffic > 0 {
		res.HitRate = float64(snap.Cache.Hits) / float64(traffic)
	}
	return res, nil
}

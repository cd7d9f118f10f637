// Matching-engine performance evidence: the before/after record behind
// the BENCH_matching.json artifact. The "after" runs are measured live on
// the current engine, sequential and parallel; the "before" run is the
// recorded seed-engine measurement (ancestor-climb common(), no index),
// kept here because the seed code no longer exists in the tree to be
// re-run.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// MatchingPerfRun is one measured (or recorded) FastMatch configuration
// on one tree pair.
type MatchingPerfRun struct {
	Name   string `json:"name"`
	Pair   string `json:"pair"`
	Config string `json:"config"`
	// Parallelism is the Options.Parallelism the run used; 0 is the
	// default, GOMAXPROCS.
	Parallelism int `json:"parallelism"`
	// NsPerOp is the median wall-clock of one FastMatch call.
	NsPerOp int64 `json:"ns_per_op"`
	// Pairs is the size of the returned matching.
	Pairs int `json:"pairs"`
	// R1/R2/Total are the logical Figure 13(b) counters.
	R1    int64  `json:"r1_leaf_compares"`
	R2    int64  `json:"r2_partner_checks"`
	Total int64  `json:"total_compares"`
	Notes string `json:"notes,omitempty"`
}

// MatchingPerfReport is the full BENCH_matching.json payload.
type MatchingPerfReport struct {
	GoMaxProcs int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Before     MatchingPerfRun   `json:"before"`
	After      []MatchingPerfRun `json:"after"`
	// SpeedupX is the seed's ns/op over the sequential run's on the
	// same document pair.
	SpeedupX float64 `json:"speedup_x"`
}

// SeedMatchingBaseline is the pre-change measurement of
// BenchmarkStageFastMatch on the seed engine (commit e76c52c): per-leaf
// ancestor climbs in common(), full word-LCS on every compare, no token
// cache, no memo, sequential. ns/op is machine-dependent; the counter
// values are exact. r2 differs from the current engine because the seed
// charged one check per ancestor-climb step where the current cost model
// charges one partner lookup plus one containment test per matched leaf.
var SeedMatchingBaseline = MatchingPerfRun{
	Name:        "seed",
	Pair:        docPerfPair,
	Config:      "pre-index engine: ancestor climbs, unbounded word-LCS, no memo, sequential",
	Parallelism: 1,
	NsPerOp:     34_200_000,
	Pairs:       318,
	R1:          5547,
	R2:          4208,
	Total:       9755,
	Notes:       "recorded before the performance layer landed; the seed common() no longer exists to re-run",
}

// docPerfPair names the pair matchingPerfPair returns.
const docPerfPair = "set-B(medium) ⊕ Mix(seed=42, ops=24)"

// matchingPerfPair returns the report's document pair: the medium
// document set perturbed with the stage-benchmark mix.
func matchingPerfPair() (oldT, newT *tree.Tree, err error) {
	doc := gen.Document(Sets()[1].Params)
	pert, err := gen.Perturb(doc, gen.Mix(42, 24))
	if err != nil {
		return nil, nil, err
	}
	return doc, pert.New, nil
}

// CollectMatchingPerf measures FastMatch and assembles the full report.
// The document pair runs sequentially and at the default parallelism;
// its rank groups are singletons, so both take the sequential path. Two
// gen.MultiLabelPair pairs of 4 labels and the given number of slots,
// one near-identical (edit 0.05) and one heavily edited (edit 1), run at
// Parallelism 1 and 2, where the rank rounds do fan out. iters is the
// number of timed calls per row (the median is reported); values below
// 3 are raised to 3. Every row must count each leaf compare it executes
// exactly once (EffectiveLeafCompares == LeafCompares), or the
// collection fails.
func CollectMatchingPerf(iters, slots int) (*MatchingPerfReport, error) {
	if iters < 3 {
		iters = 3
	}
	docOld, docNew, err := matchingPerfPair()
	if err != nil {
		return nil, err
	}
	nearOld, nearNew := gen.MultiLabelPair(1, 4, slots, 0.05)
	heavyOld, heavyNew := gen.MultiLabelPair(1, 4, slots, 1)
	nearPair := fmt.Sprintf("MultiLabelPair(seed=1, labels=4, slots=%d, edit=0.05)", slots)
	heavyPair := fmt.Sprintf("MultiLabelPair(seed=1, labels=4, slots=%d, edit=1)", slots)

	configs := []struct {
		name, pair, desc string
		old, new         *tree.Tree
		parallelism      int
	}{
		{"doc-sequential", docPerfPair, "index + bounded LCS, sequential", docOld, docNew, 1},
		{"doc-default", docPerfPair, "default parallelism (GOMAXPROCS)", docOld, docNew, 0},
		{"near-p1", nearPair, "near-identical multi-label, sequential", nearOld, nearNew, 1},
		{"near-p2", nearPair, "near-identical multi-label, 2 workers", nearOld, nearNew, 2},
		{"heavy-p1", heavyPair, "heavily edited multi-label, sequential", heavyOld, heavyNew, 1},
		{"heavy-p2", heavyPair, "heavily edited multi-label, 2 workers", heavyOld, heavyNew, 2},
	}
	report := &MatchingPerfReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Before:     SeedMatchingBaseline,
	}
	for _, cfg := range configs {
		run := MatchingPerfRun{Name: cfg.name, Pair: cfg.pair, Config: cfg.desc, Parallelism: cfg.parallelism}
		// Warm-up run, not timed (builds tree indexes).
		if _, err := match.FastMatch(cfg.old, cfg.new, match.Options{Parallelism: cfg.parallelism}); err != nil {
			return nil, fmt.Errorf("bench: matchperf %s: %w", cfg.name, err)
		}
		times := make([]int64, iters)
		for i := range times {
			stats := &match.Stats{}
			start := time.Now()
			m, err := match.FastMatch(cfg.old, cfg.new, match.Options{Parallelism: cfg.parallelism, Stats: stats})
			times[i] = time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench: matchperf %s: %w", cfg.name, err)
			}
			if stats.EffectiveLeafCompares != stats.LeafCompares {
				return nil, fmt.Errorf("bench: matchperf %s: executed %d leaf compares, counted %d",
					cfg.name, stats.EffectiveLeafCompares, stats.LeafCompares)
			}
			run.Pairs = m.Len()
			run.R1 = stats.LeafCompares
			run.R2 = stats.PartnerChecks
			run.Total = stats.Total()
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		run.NsPerOp = times[len(times)/2]
		report.After = append(report.After, run)
	}
	if seq := report.After[0].NsPerOp; seq > 0 {
		report.SpeedupX = float64(report.Before.NsPerOp) / float64(seq)
	}
	return report, nil
}

// WriteMatchingPerf writes the report as indented JSON to path.
func (r *MatchingPerfReport) WriteMatchingPerf(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

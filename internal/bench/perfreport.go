// Matching-engine performance evidence: the record behind the
// BENCH_matching.json artifact, one FastMatch row per tree pair,
// measured live on the current engine.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// MatchingPerfRun is one measured FastMatch configuration on one tree
// pair.
type MatchingPerfRun struct {
	Name   string `json:"name"`
	Pair   string `json:"pair"`
	Config string `json:"config"`
	// NsPerOp is the median wall-clock of one FastMatch call.
	NsPerOp int64 `json:"ns_per_op"`
	// Pairs is the size of the returned matching.
	Pairs int `json:"pairs"`
	// R1/R2/Total are the logical Figure 13(b) counters.
	R1    int64 `json:"r1_leaf_compares"`
	R2    int64 `json:"r2_partner_checks"`
	Total int64 `json:"total_compares"`
}

// MatchingPerfReport is the full BENCH_matching.json payload.
type MatchingPerfReport struct {
	GoMaxProcs int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	After      []MatchingPerfRun `json:"after"`
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

// CollectMatchingPerf measures FastMatch and assembles the full report:
// one row for the document pair, whose rank groups are singletons, and
// one for each of two gen.MultiLabelPair pairs of 4 labels and the given
// number of slots, one near-identical (edit 0.05) and one heavily edited
// (edit 1), whose rank groups hold several labels. iters is the number
// of timed calls per row (the median is reported); values below 3 are
// raised to 3. Every row must count each leaf compare it executes
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
	}{
		{"doc", docPerfPair, "index + bounded LCS", docOld, docNew},
		{"near", nearPair, "near-identical multi-label", nearOld, nearNew},
		{"heavy", heavyPair, "heavily edited multi-label", heavyOld, heavyNew},
	}
	report := &MatchingPerfReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, cfg := range configs {
		run := MatchingPerfRun{Name: cfg.name, Pair: cfg.pair, Config: cfg.desc}
		// Warm-up run, not timed (builds tree indexes).
		if _, err := match.FastMatch(cfg.old, cfg.new, match.Options{}); err != nil {
			return nil, fmt.Errorf("bench: matchperf %s: %w", cfg.name, err)
		}
		times := make([]int64, iters)
		for i := range times {
			stats := &match.Stats{}
			start := time.Now()
			m, err := match.FastMatch(cfg.old, cfg.new, match.Options{Stats: stats})
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
	return report, nil
}

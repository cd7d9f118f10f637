// Quality/runtime frontier evidence (experiment E14): every matching
// engine over the standard workload classes, priced against the true
// optimal edit distance — the record behind BENCH_quality.json.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/compare"
	"ladiff/internal/core"
	"ladiff/internal/edit"
	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// alignedCompare prices one leaf pair identically on both sides of the
// optimality studies: an exact-equal pair costs 0, a similar pair
// (within the leaf threshold) costs 1 to update/relabel, a dissimilar
// replacement costs 2 — its own delete+insert, which is also the only
// way a conforming script may express it under Criterion 1.
func alignedCompare(a, b string) float64 {
	switch {
	case a == b:
		return 0
	case compare.WordLCS(a, b) <= match.DefaultLeafThreshold:
		return 1
	default:
		return 2
	}
}

// alignedScriptModel prices an edit script under the aligned pricing.
// Moves cost 1 — see the caveat on CollectQualityPerf.
func alignedScriptModel() edit.CostModel {
	return edit.CostModel{InsertCost: 1, DeleteCost: 1, MoveCost: 1, Compare: alignedCompare}
}

// alignedOracleCosts is the oracle-side counterpart of
// alignedScriptModel: the [ZS89]-model costs under which the optimal
// distance is computed.
func alignedOracleCosts() zs.Costs {
	return zs.Costs{
		Insert: func(*tree.Node) float64 { return 1 },
		Delete: func(*tree.Node) float64 { return 1 },
		Relabel: func(a, b *tree.Node) float64 {
			if a.Label() != b.Label() {
				return 2
			}
			return alignedCompare(a.Value(), b.Value())
		},
	}
}

// QualityPerfRow is one engine × workload-class measurement of the
// quality/runtime frontier.
type QualityPerfRow struct {
	Class  string `json:"class"`
	Engine string `json:"engine"`
	// OldNodes/NewNodes size the document pair.
	OldNodes int `json:"old_nodes"`
	NewNodes int `json:"new_nodes"`
	// NsPerOp is the median wall-clock of one full Diff under this
	// engine (matching plus script generation).
	NsPerOp int64 `json:"ns_per_op"`
	// ScriptOps is the produced script length.
	ScriptOps int `json:"script_ops"`
	// ScriptCost is the script priced under the aligned model.
	ScriptCost float64 `json:"script_cost"`
	// OptimalCost is the true optimal edit distance of the pair
	// (zs.Distance under the aligned oracle costs).
	OptimalCost float64 `json:"optimal_cost"`
	// CostRatio is ScriptCost / OptimalCost: 1.0 = optimal. See the
	// move caveat on CollectQualityPerf for ratios below 1.
	CostRatio float64 `json:"cost_ratio"`
}

// QualityPerfReport is the full BENCH_quality.json payload.
type QualityPerfReport struct {
	Benchmark  string           `json:"benchmark"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Pricing    string           `json:"pricing"`
	MoveCaveat string           `json:"move_caveat"`
	Rows       []QualityPerfRow `json:"rows"`
}

// qualityEngines is the frontier's engine axis, cheapest first.
func qualityEngines() []core.Matcher {
	return []core.Matcher{core.FastMatcher, core.SimpleMatcher, core.ZSMatcher}
}

// qualityPair is one workload of the frontier: a named old/new pair.
type qualityPair struct {
	name     string
	old, new *tree.Tree
}

// qualityPairs is the frontier's workload axis: the standard battery
// classes, the shared gen.Sections size sweep, and two right-deep combs
// (101 and 201 nodes per tree), the shape on which Zhang–Shasha's
// leftmost-path decomposition is at its worst. The sparse-1pct class is
// scaled from ~224 to 8 sections (the edit rate kept at ~1%) so the
// optimal oracle stays tractable — the full-size class exists to stress
// the fingerprint ladder, not the matchers, and at ~5000 nodes the
// O(n²)-and-up oracle would dominate the whole harness.
func qualityPairs(sections []int) ([]qualityPair, error) {
	var classes []gen.Class
	for _, c := range gen.Classes() {
		if c.Name == "sparse-1pct" {
			c.Name = "sparse-1pct-s8"
			c.Doc.Sections = 8
			c.Pert = func(seed int64) gen.PerturbParams { return gen.Mix(seed, 2) }
		}
		classes = append(classes, c)
	}
	for _, n := range sections {
		classes = append(classes, gen.Sections(n))
	}
	var out []qualityPair
	for _, c := range classes {
		dp := c.Doc
		if dp.Seed == 0 {
			dp.Seed = 1501
		}
		doc := gen.Document(dp)
		pert, err := gen.Perturb(doc, c.Pert(dp.Seed+1))
		if err != nil {
			return nil, fmt.Errorf("bench: qualityperf %s: %w", c.Name, err)
		}
		out = append(out, qualityPair{c.Name, doc, pert.New})
	}
	for _, leaves := range []int{50, 100} {
		old, new := gen.RightCombPair(1601, leaves)
		out = append(out, qualityPair{fmt.Sprintf("right-comb-%d", old.Len()), old, new})
	}
	return out, nil
}

// CollectQualityPerf measures the quality/runtime frontier (E14): for
// every matching engine × workload, the wall-clock of a full Diff and
// the script cost relative to the true optimum (zs.Distance under the
// aligned pricing). reps ≤ 0 means 3; sections nil means the standard
// {1, 2, 4, 8} sweep (pass an empty non-nil slice to skip the sweep).
//
// Move caveat: scripts price a move at 1, but the oracle's [ZS89]
// operation set has no move and must express one as delete+insert
// (cost 2). On move-heavy workloads a criteria-based script can
// therefore cost LESS than "optimal" — ratios below 1.0 there measure
// the model gap, not a broken oracle. On move-free workloads the
// ratio is a true optimality gap and never drops below 1.
func CollectQualityPerf(reps int, sections []int) (*QualityPerfReport, error) {
	if reps <= 0 {
		reps = 3
	}
	if sections == nil {
		sections = []int{1, 2, 4, 8}
	}
	report := &QualityPerfReport{
		Benchmark:  "quality/runtime frontier: engine × workload class vs optimal cost",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Pricing:    "insert/delete 1, move 1, update 0 (equal), 1 (similar), 2 (dissimilar); oracle relabel aligned",
		MoveCaveat: "the oracle op set has no move (a move prices as delete+insert = 2), so move-heavy ratios can sit below 1.0",
	}
	model := alignedScriptModel()
	pairs, err := qualityPairs(sections)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		optimal, err := zs.Distance(p.old, p.new, alignedOracleCosts())
		if err != nil {
			return nil, fmt.Errorf("bench: qualityperf %s oracle: %w", p.name, err)
		}
		for _, m := range qualityEngines() {
			var res *core.Result
			ns := make([]int64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err = core.Diff(p.old, p.new, core.Options{Matcher: m})
				if err != nil {
					return nil, fmt.Errorf("bench: qualityperf %s/%s: %w", p.name, m.EngineName(), err)
				}
				ns = append(ns, time.Since(start).Nanoseconds())
			}
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
			cost := model.Cost(res.Script)
			row := QualityPerfRow{
				Class:       p.name,
				Engine:      m.EngineName(),
				OldNodes:    p.old.Len(),
				NewNodes:    p.new.Len(),
				NsPerOp:     ns[len(ns)/2],
				ScriptOps:   len(res.Script),
				ScriptCost:  cost,
				OptimalCost: optimal,
			}
			if optimal > 0 {
				row.CostRatio = cost / optimal
			} else if cost == 0 {
				row.CostRatio = 1
			}
			report.Rows = append(report.Rows, row)
		}
	}
	return report, nil
}

// WriteQualityPerf writes the report as indented JSON to path.
func (r *QualityPerfReport) WriteQualityPerf(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

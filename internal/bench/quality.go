package bench

import (
	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/zs"
)

// QualityPoint is one measurement of the optimality-gap study
// (experiment E10): how far the fast pipeline's script cost sits above
// the optimal [ZS89] cost as leaf duplication (Criterion 3 violation)
// increases.
type QualityPoint struct {
	DuplicateRate float64
	Violations    int     // leaves violating Criterion 3 (old side)
	FastCost      float64 // A(1) script cost under the aligned pricing
	A3Cost        float64 // A(3) (ZS-matched pipeline) script cost
	OptimalCost   float64 // ZS distance: a reference, not the paper-model optimum
	Gap           float64 // FastCost / OptimalCost (1.0 = the ZS cost)
	A3Gap         float64 // A3Cost / OptimalCost
}

// QualityGap quantifies §8's "non-optimal matching compromises only the
// quality of an edit script, not its correctness": on move-free
// perturbations, sweep the near-duplicate sentence rate and report the
// cost ratio of the fast pipeline against the [ZS89] distance. That
// distance is a reference, not the optimum of the paper's model: ZS
// splices an internal node away for 1, which the paper's leaf-only DEL
// cannot (DESIGN §12).
//
// Two effects show up in the gap. Criterion-3 violations cause genuine
// mismatches, and — independently — the container criteria themselves
// are conservative: a paragraph that loses half its sentences fails the
// Criterion-2 bar (|common|/max ≤ t) and is rebuilt even though keeping
// it would be cheaper. The A(3) column isolates the two: the ZS-matched
// pipeline ignores the criteria, so its gap stays near 1.0 throughout,
// while the criteria-based pipeline pays a modest premium — the
// optimality-for-efficiency trade the paper calls "reasonable in many
// applications" (§8).
//
// Pricing is aligned across the two operation sets so the ratio
// isolates matching quality — alignedCompare and alignedOracleCosts in
// qualityperf.go, shared with the E14 frontier harness.
func QualityGap(rates []float64) ([]QualityPoint, error) {
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	zsCosts := alignedOracleCosts()
	var out []QualityPoint
	for i, rate := range rates {
		doc := gen.Document(gen.DocParams{
			Seed: 1300 + int64(i), Sections: 2, MinParagraphs: 3, MaxParagraphs: 4,
			MinSentences: 3, MaxSentences: 5,
			// A large vocabulary keeps ambient near-duplicates at zero,
			// so Criterion 3 violations come only from the DuplicateRate
			// knob and the rate-0 row is a true control.
			DuplicateRate: rate, Vocabulary: 4000, MinWords: 8, MaxWords: 12,
		})
		// Move-free perturbation: inserts, deletes, updates only, so the
		// [ZS89] operation set can express the same transformation.
		// Mild updates (≈1-2 words of 8-12) stay within the leaf
		// threshold, so with no duplicates every surviving sentence is
		// re-identified. The control row still reads 1.50 (12 vs 8):
		// Criterion 2 rebuilds paragraphs that lost half their sentences
		// (TestGuaranteeStops pins it).
		pert, err := gen.Perturb(doc, gen.PerturbParams{
			Seed: 1400 + int64(i), InsertSentences: 3, DeleteSentences: 3, UpdateSentences: 3,
			UpdateFraction: 0.1,
		})
		if err != nil {
			return nil, err
		}
		res, err := core.DiffAtLevel(doc, pert.New, core.LevelRepair, match.Options{})
		if err != nil {
			return nil, err
		}
		resA3, err := core.DiffAtLevel(doc, pert.New, core.LevelOptimal, match.Options{})
		if err != nil {
			return nil, err
		}
		model := alignedScriptModel()
		fastCost := model.Cost(res.Script)
		a3Cost := model.Cost(resA3.Script)
		optimal, err := zs.Distance(doc, pert.New, zsCosts)
		if err != nil {
			return nil, err
		}
		viol, _, err := match.Criterion3Violations(doc, pert.New, match.Options{})
		if err != nil {
			return nil, err
		}
		p := QualityPoint{
			DuplicateRate: rate,
			Violations:    len(viol),
			FastCost:      fastCost,
			A3Cost:        a3Cost,
			OptimalCost:   optimal,
		}
		if optimal > 0 {
			p.Gap = fastCost / optimal
			p.A3Gap = a3Cost / optimal
		} else if fastCost == 0 {
			p.Gap, p.A3Gap = 1, 1
		}
		out = append(out, p)
	}
	return out, nil
}

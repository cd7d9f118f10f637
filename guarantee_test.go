package ladiff_test

import (
	"testing"

	"ladiff"
	"ladiff/internal/bench"
	"ladiff/internal/conformance"
	"ladiff/internal/match"
)

// TestGuaranteeStops pins where the paper's guarantee stops (DESIGN §3).
// Criteria 1–3 with acyclic labels give a unique maximal matching
// (Theorem 5.2), not a minimum-cost script: on the minimal pair the
// criteria hold, yet A(0)–A(2) rebuild a paragraph that A(3) keeps. And
// the Zhang–Shasha distance bounds the paper-model optimum neither way:
// it deletes an internal node for 1 where the paper's DEL removes leaves
// only. This is a pin, not a bound: if a change makes FastMatch keep the
// minimal pair's paragraph, revisit the documents that cite it.
func TestGuaranteeStops(t *testing.T) {
	// E10's control row: no duplicates, no violations, still 12 vs 8.
	points, err := bench.QualityGap([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if p := points[0]; p.Violations != 0 || p.FastCost != 12 || p.OptimalCost != 8 || p.Gap != 1.5 {
		t.Errorf("E10 control row %+v, want 0 violations and 12 vs 8 (1.50x)", p)
	}

	type counts struct{ ins, del, upd, mov int }
	for _, c := range []struct {
		pair   conformance.Pair
		levels [4]counts // A(0)..A(3)
		zs     float64
	}{
		{conformance.MinimalPair, [4]counts{{2, 3, 0, 2}, {2, 3, 0, 2}, {2, 3, 0, 2}, {1, 2, 0, 0}}, 3},
		{conformance.SplicePair, [4]counts{{0, 1, 0, 3}, {0, 1, 0, 3}, {0, 1, 0, 3}, {0, 1, 0, 3}}, 1},
	} {
		oldT, newT, err := c.pair.Parse()
		if err != nil {
			t.Fatal(err)
		}
		if o, n, err := match.Criterion3Violations(oldT, newT, match.Options{}); err != nil || len(o)+len(n) != 0 {
			t.Errorf("%s: Criterion 3 violations %v %v (%v)", c.pair.Name, o, n, err)
		}
		if err := ladiff.CheckAcyclicLabels(oldT, newT); err != nil {
			t.Errorf("%s: %v", c.pair.Name, err)
		}
		for k, want := range c.levels {
			res, err := ladiff.DiffAtLevel(oldT, newT, ladiff.OptimalityLevel(k), ladiff.MatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var got counts
			got.ins, got.del, got.upd, got.mov = res.Script.Counts()
			if got != want || res.Cost(nil) != float64(want.ins+want.del+want.mov) {
				t.Errorf("%s A(%d): %+v at cost %v, want %+v", c.pair.Name, k, got, res.Cost(nil), want)
			}
		}
		if d, err := ladiff.ZhangShashaDistance(oldT, newT); err != nil || d != c.zs {
			t.Errorf("%s: ZS distance %v (%v), want %v", c.pair.Name, d, err, c.zs)
		}
	}
}

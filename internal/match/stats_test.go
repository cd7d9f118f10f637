package match_test

import (
	"testing"

	"ladiff/internal/gen"
	. "ladiff/internal/match"
)

// TestStatsRegressionFixedPair pins the logical comparison counters on a
// fixed tree pair (the medium benchmark document, perturbed with the
// benchmark mix). The pinned values are the Figure 13(b) cost model's
// r1 (leaf compares) and r2 (partner/containment checks); they must not
// drift under parallelism or engine refactors — any
// intentional change to the logical cost model has to update this test
// explicitly.
func TestStatsRegressionFixedPair(t *testing.T) {
	doc := gen.Document(gen.DocParams{
		Seed: 202, Sections: 8,
		MinParagraphs: 4, MaxParagraphs: 7,
		MinSentences: 5, MaxSentences: 9,
		Vocabulary: 4000,
	})
	pert, err := gen.Perturb(doc, gen.Mix(42, 24))
	if err != nil {
		t.Fatal(err)
	}

	const (
		wantPairs = 318
		wantR1    = 5547
		wantR2    = 2513
	)
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"sequential", Options{Parallelism: 1}},
		{"parallel", Options{Parallelism: 4}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			stats := &Stats{}
			opts := cfg.opts
			opts.Stats = stats
			m, err := FastMatch(doc, pert.New, opts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Len() != wantPairs {
				t.Errorf("pairs = %d, want %d", m.Len(), wantPairs)
			}
			if stats.LeafCompares != wantR1 {
				t.Errorf("r1 (LeafCompares) = %d, want %d", stats.LeafCompares, wantR1)
			}
			if stats.PartnerChecks != wantR2 {
				t.Errorf("r2 (PartnerChecks) = %d, want %d", stats.PartnerChecks, wantR2)
			}
			if got, want := stats.Total(), int64(wantR1+wantR2); got != want {
				t.Errorf("total = %d, want %d", got, want)
			}
			// Every logical leaf compare runs the comparer.
			if stats.EffectiveLeafCompares != stats.LeafCompares {
				t.Errorf("executed leaf compares %d != r1 %d",
					stats.EffectiveLeafCompares, stats.LeafCompares)
			}
		})
	}
}

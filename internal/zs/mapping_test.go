package zs_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// checkMappingStructure verifies the defining properties of a [ZS89]
// mapping: one-to-one, ancestor-preserving, and order-preserving.
func checkMappingStructure(t *testing.T, pairs []zs.MapPair) {
	t.Helper()
	seenOld := map[*tree.Node]bool{}
	seenNew := map[*tree.Node]bool{}
	for _, p := range pairs {
		if seenOld[p.Old] || seenNew[p.New] {
			t.Fatalf("mapping not one-to-one at %v/%v", p.Old, p.New)
		}
		seenOld[p.Old] = true
		seenNew[p.New] = true
	}
	for _, a := range pairs {
		for _, b := range pairs {
			if a == b {
				continue
			}
			// Ancestor preservation.
			if tree.IsAncestor(a.Old, b.Old) != tree.IsAncestor(a.New, b.New) {
				t.Fatalf("ancestry not preserved: (%v,%v) vs (%v,%v)", a.Old, a.New, b.Old, b.New)
			}
		}
	}
}

func TestMappingIdentical(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 2, Sections: 2})
	cp := doc.Clone()
	pairs, d, err := zs.Mapping(context.Background(), doc, cp, zs.UnitCosts())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("distance = %v, want 0", d)
	}
	if len(pairs) != doc.Len() {
		t.Fatalf("mapped %d of %d nodes", len(pairs), doc.Len())
	}
	checkMappingStructure(t, pairs)
}

func TestMappingCostMatchesDistance(t *testing.T) {
	// The mapping's implied cost (relabels + unmapped deletes + unmapped
	// inserts) must equal the computed distance.
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			doc := gen.Document(gen.DocParams{Seed: seed, Sections: 2, MaxParagraphs: 3, MaxSentences: 4})
			pert, err := gen.Perturb(doc, gen.Mix(seed+31, 5))
			if err != nil {
				t.Fatal(err)
			}
			costs := zs.UnitCosts()
			pairs, d, err := zs.Mapping(context.Background(), doc, pert.New, costs)
			if err != nil {
				t.Fatal(err)
			}
			checkMappingStructure(t, pairs)
			implied := 0.0
			mappedOld := map[tree.NodeID]bool{}
			mappedNew := map[tree.NodeID]bool{}
			for _, p := range pairs {
				implied += costs.Relabel(p.Old, p.New)
				mappedOld[p.Old.ID()] = true
				mappedNew[p.New.ID()] = true
			}
			doc.Walk(func(n *tree.Node) bool {
				if !mappedOld[n.ID()] {
					implied++
				}
				return true
			})
			pert.New.Walk(func(n *tree.Node) bool {
				if !mappedNew[n.ID()] {
					implied++
				}
				return true
			})
			if math.Abs(implied-d) > 1e-6 {
				t.Fatalf("mapping implies cost %v, distance is %v", implied, d)
			}
			// Cross-check against the independent Distance entry point.
			d2, err := zs.Distance(doc, pert.New, costs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d-d2) > 1e-9 {
				t.Fatalf("Mapping distance %v != Distance %v", d, d2)
			}
		})
	}
}

func TestMatchingCostsForbidCrossLabel(t *testing.T) {
	a := tree.MustParse(`doc
  x "same words here"`)
	b := tree.MustParse(`doc
  y "same words here"`)
	pairs, _, err := zs.Mapping(context.Background(), a, b, zs.MatchingCosts(compare.WordLCS))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Old.Label() != p.New.Label() {
			t.Fatalf("cross-label pair %v/%v survived MatchingCosts", p.Old, p.New)
		}
	}
}

func TestMatchingCostsPreferSimilarValues(t *testing.T) {
	a := tree.MustParse(`doc
  s "alpha beta gamma delta"`)
	b := tree.MustParse(`doc
  s "totally different words entirely"
  s "alpha beta gamma echo"`)
	pairs, _, err := zs.Mapping(context.Background(), a, b, zs.MatchingCosts(compare.WordLCS))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Old.Label() == "s" && p.New.Value() != "alpha beta gamma echo" {
			t.Fatalf("sentence paired with %q instead of the similar one", p.New.Value())
		}
	}
}

func TestMappingErrors(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 1})
	if _, _, err := zs.Mapping(context.Background(), doc, tree.New(), zs.UnitCosts()); err == nil {
		t.Fatal("expected error for empty tree")
	}
	if _, _, err := zs.Mapping(context.Background(), doc, doc, zs.Costs{}); err == nil {
		t.Fatal("expected error for missing costs")
	}
}

package zs_test

import (
	"fmt"
	"math"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

func dist(t *testing.T, a, b *tree.Tree) float64 {
	t.Helper()
	d, err := zs.UnitDistance(a, b)
	if err != nil {
		t.Fatalf("UnitDistance: %v", err)
	}
	return d
}

func TestIdenticalTreesZeroDistance(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 3})
	if d := dist(t, doc, doc.Clone()); d != 0 {
		t.Fatalf("distance = %v, want 0", d)
	}
}

func TestSingleRelabel(t *testing.T) {
	a := tree.MustParse(`doc
  s "x"`)
	b := tree.MustParse(`doc
  s "y"`)
	if d := dist(t, a, b); d != 1 {
		t.Fatalf("distance = %v, want 1", d)
	}
}

func TestSingleInsertDelete(t *testing.T) {
	a := tree.MustParse(`doc
  s "x"`)
	b := tree.MustParse(`doc
  s "x"
  s "y"`)
	if d := dist(t, a, b); d != 1 {
		t.Fatalf("insert distance = %v, want 1", d)
	}
	if d := dist(t, b, a); d != 1 {
		t.Fatalf("delete distance = %v, want 1", d)
	}
}

// TestClassicExample is the worked example from the Zhang–Shasha paper:
// the trees f(d(a c(b)) e) and f(c(d(a b)) e) have unit distance 2.
func TestClassicExample(t *testing.T) {
	a := tree.MustParse(`f
  d
    a
    c
      b
  e`)
	b := tree.MustParse(`f
  c
    d
      a
      b
  e`)
	if d := dist(t, a, b); d != 2 {
		t.Fatalf("distance = %v, want 2", d)
	}
}

func TestDeletePromotesChildren(t *testing.T) {
	// [ZS89] deletion splices children up: removing the middle node is a
	// single operation even though it has children — unlike our DEL,
	// which only removes leaves.
	a := tree.MustParse(`r
  mid
    x "1"
    y "2"`)
	b := tree.MustParse(`r
  x "1"
  y "2"`)
	if d := dist(t, a, b); d != 1 {
		t.Fatalf("distance = %v, want 1 (single interior delete)", d)
	}
}

func TestSymmetryUnderUnitCosts(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := gen.Document(gen.DocParams{Seed: seed, Sections: 2, MaxParagraphs: 3, MaxSentences: 3})
		pert, err := gen.Perturb(a, gen.Mix(seed+50, 4))
		if err != nil {
			t.Fatal(err)
		}
		d1 := dist(t, a, pert.New)
		d2 := dist(t, pert.New, a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("seed %d: distance not symmetric: %v vs %v", seed, d1, d2)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a := gen.Document(gen.DocParams{Seed: seed, Sections: 2, MaxParagraphs: 2, MaxSentences: 3})
		p1, err := gen.Perturb(a, gen.Mix(seed+1, 3))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := gen.Perturb(p1.New, gen.Mix(seed+2, 3))
		if err != nil {
			t.Fatal(err)
		}
		ab := dist(t, a, p1.New)
		bc := dist(t, p1.New, p2.New)
		ac := dist(t, a, p2.New)
		if ac > ab+bc+1e-9 {
			t.Fatalf("seed %d: triangle violated: d(a,c)=%v > %v + %v", seed, ac, ab, bc)
		}
	}
}

func TestCustomCosts(t *testing.T) {
	a := tree.MustParse(`doc
  s "x"`)
	b := tree.MustParse(`doc
  s "y"`)
	costs := zs.Costs{
		Insert: func(*tree.Node) float64 { return 10 },
		Delete: func(*tree.Node) float64 { return 10 },
		Relabel: func(x, y *tree.Node) float64 {
			if x.Label() == y.Label() && x.Value() == y.Value() {
				return 0
			}
			return 3
		},
	}
	d, err := zs.Distance(a, b, costs)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("distance = %v, want relabel cost 3", d)
	}
}

func TestErrors(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 1})
	if _, err := zs.UnitDistance(doc, tree.New()); err == nil {
		t.Fatal("expected error for empty tree")
	}
	if _, err := zs.Distance(doc, doc, zs.Costs{}); err == nil {
		t.Fatal("expected error for missing cost functions")
	}
}

// TestLowerBoundsOurScripts: on move-free perturbations the ZS unit
// distance is the true optimum for insert/delete/relabel, so it can never
// exceed our script's operation count for the same transformation.
func TestLowerBoundsOurScripts(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			doc := gen.Document(gen.DocParams{Seed: seed + 80, Sections: 2, MaxParagraphs: 3})
			pert, err := gen.Perturb(doc, gen.PerturbParams{
				Seed: seed, InsertSentences: 2, DeleteSentences: 2, UpdateSentences: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			zd := dist(t, doc, pert.New)
			// Our unweighted distance d counts the same kinds of ops here
			// (no moves were applied, and updates map to relabels).
			if int(zd) > pert.Applied {
				t.Fatalf("ZS distance %v exceeds applied op count %d", zd, pert.Applied)
			}
		})
	}
}

func TestDegenerateShapes(t *testing.T) {
	// Single nodes.
	a := tree.NewWithRoot("x", "v")
	b := tree.NewWithRoot("x", "v")
	if d := dist(t, a, b); d != 0 {
		t.Fatalf("single identical nodes: %v", d)
	}
	c := tree.NewWithRoot("x", "w")
	if d := dist(t, a, c); d != 1 {
		t.Fatalf("single relabel: %v", d)
	}
	// Deep linear chains (worst case for keyroot count is 1 per tree).
	chain := func(n int, last string) *tree.Tree {
		tr := tree.NewWithRoot("c0", "")
		cur := tr.Root()
		for i := 1; i < n; i++ {
			cur = tr.AppendChild(cur, tree.Label(fmt.Sprintf("c%d", i)), "")
		}
		tr.SetValue(cur, last)
		return tr
	}
	if d := dist(t, chain(40, "end"), chain(40, "end")); d != 0 {
		t.Fatalf("identical chains: %v", d)
	}
	if d := dist(t, chain(40, "end"), chain(40, "other")); d != 1 {
		t.Fatalf("chain tail relabel: %v", d)
	}
	// Extending the chain adds a new deepest node (new label c40) AND
	// relocates the "end" value from c39 to it: insert + relabel = 2.
	if d := dist(t, chain(40, "end"), chain(41, "end")); d != 2 {
		t.Fatalf("chain extension: %v", d)
	}
	// Star shapes (every leaf is a keyroot).
	star := func(n int) *tree.Tree {
		tr := tree.NewWithRoot("r", "")
		for i := 0; i < n; i++ {
			tr.AppendChild(tr.Root(), "leaf", fmt.Sprint(i))
		}
		return tr
	}
	if d := dist(t, star(30), star(29)); d != 1 {
		t.Fatalf("star delete: %v", d)
	}
}

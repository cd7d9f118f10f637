package gen_test

import (
	"strings"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

func TestDocumentDeterministic(t *testing.T) {
	a := gen.Document(gen.DocParams{Seed: 42})
	b := gen.Document(gen.DocParams{Seed: 42})
	if !tree.Isomorphic(a, b) {
		t.Fatal("same seed must generate identical documents")
	}
	c := gen.Document(gen.DocParams{Seed: 43})
	if tree.Isomorphic(a, c) {
		t.Fatal("different seeds should generate different documents")
	}
}

func TestDocumentStructure(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 1, Sections: 5})
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Chain(gen.LabelSection)); got != 5 {
		t.Fatalf("sections = %d, want 5", got)
	}
	for _, sec := range doc.Chain(gen.LabelSection) {
		if sec.NumChildren() < 3 || sec.NumChildren() > 6 {
			t.Fatalf("section has %d paragraphs, want 3..6", sec.NumChildren())
		}
	}
	for _, s := range doc.Chain(gen.LabelSentence) {
		if !s.IsLeaf() {
			t.Fatal("sentences must be leaves")
		}
		words := strings.Fields(s.Value())
		if len(words) < 6 || len(words) > 14 {
			t.Fatalf("sentence has %d words, want 6..14", len(words))
		}
	}
	if err := match.CheckAcyclicLabels(doc); err != nil {
		t.Fatalf("generated schema must be acyclic: %v", err)
	}
}

func TestDocumentBounds(t *testing.T) {
	doc := gen.Document(gen.DocParams{
		Seed: 9, Sections: 2,
		MinParagraphs: 2, MaxParagraphs: 2,
		MinSentences: 3, MaxSentences: 3,
		MinWords: 5, MaxWords: 5,
	})
	if got := len(doc.Chain(gen.LabelParagraph)); got != 4 {
		t.Fatalf("paragraphs = %d, want exactly 4", got)
	}
	if got := len(doc.Leaves()); got != 12 {
		t.Fatalf("sentences = %d, want exactly 12", got)
	}
	for _, s := range doc.Leaves() {
		if len(strings.Fields(s.Value())) != 5 {
			t.Fatalf("sentence %q not 5 words", s.Value())
		}
	}
}

func TestDuplicateRateProducesNearCopies(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 5, DuplicateRate: 0.5, Vocabulary: 100})
	// With a 50% duplicate rate many sentence pairs must be within
	// distance 1 of each other.
	oldV, _, err := match.Criterion3Violations(doc, doc.Clone(), match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(oldV) == 0 {
		t.Fatal("duplicate-heavy document reported no Criterion 3 violations")
	}
	clean := gen.Document(gen.DocParams{Seed: 5, Vocabulary: 10000, MinWords: 12, MaxWords: 18})
	cv, _, err := match.Criterion3Violations(clean, clean.Clone(), match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical clones: every sentence has exactly one close counterpart
	// (itself), so a distinct-sentence document shows no violations.
	if len(cv) != 0 {
		t.Fatalf("clean document reported %d violations", len(cv))
	}
}

func TestPerturbGroundTruth(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 3})
	pert, err := gen.Perturb(doc, gen.PerturbParams{
		Seed: 1, InsertSentences: 3, DeleteSentences: 3, UpdateSentences: 3,
		MoveSentences: 3, MoveParagraphs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pert.Applied != 13 {
		t.Fatalf("applied = %d, want 13", pert.Applied)
	}
	if err := pert.New.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pert.Truth.Validate(doc, pert.New); err != nil {
		t.Fatalf("ground truth invalid: %v", err)
	}
	// The original tree must be untouched.
	fresh := gen.Document(gen.DocParams{Seed: 3})
	if !tree.Isomorphic(doc, fresh) {
		t.Fatal("Perturb mutated its input")
	}
	// Inserted nodes are unmatched; survivors matched to themselves.
	inserted := 0
	pert.New.Walk(func(n *tree.Node) bool {
		if !pert.Truth.MatchedNew(n.ID()) {
			inserted++
		}
		return true
	})
	if inserted != 3 {
		t.Fatalf("unmatched new nodes = %d, want the 3 inserted sentences", inserted)
	}
}

func TestPerturbDeterministic(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 4})
	a, err := gen.Perturb(doc, gen.Mix(7, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Perturb(doc, gen.Mix(7, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Isomorphic(a.New, b.New) {
		t.Fatal("same seed must perturb identically")
	}
}

func TestMixSplitsOperations(t *testing.T) {
	p := gen.Mix(1, 10)
	if p.Ops() != 10 {
		t.Fatalf("Ops = %d, want 10", p.Ops())
	}
	if p.UpdateSentences != 2 || p.InsertSentences != 2 || p.DeleteSentences != 2 ||
		p.MoveSentences != 2 || p.MoveParagraphs != 2 {
		t.Fatalf("Mix(1,10) = %+v, want even split", p)
	}
}

func TestPerturbEmptyTree(t *testing.T) {
	if _, err := gen.Perturb(tree.New(), gen.Mix(1, 3)); err == nil {
		t.Fatal("expected error perturbing empty tree")
	}
}

func TestRightCombPair(t *testing.T) {
	old, new := gen.RightCombPair(7, 30)
	again, _ := gen.RightCombPair(7, 30)
	if !tree.Isomorphic(old, again) {
		t.Fatal("same seed must generate identical combs")
	}
	for _, c := range []*tree.Tree{old, new} {
		if c.Len() != 61 {
			t.Fatalf("comb has %d nodes, want 2·30+1", c.Len())
		}
		// Right-deep: every spine node ends in the next spine node.
		for n := c.Root(); !n.IsLeaf(); n = n.Child(2) {
			if n.NumChildren() != 2 || n.Child(1).Label() != gen.LabelSentence {
				t.Fatalf("spine node %v is not a sentence followed by the spine", n)
			}
		}
	}
	if tree.Isomorphic(old, new) {
		t.Fatal("the new comb is unedited")
	}
}

func TestMultiLabelPair(t *testing.T) {
	old, new := gen.MultiLabelPair(3, 4, 60, 1)
	again, _ := gen.MultiLabelPair(3, 4, 60, 1)
	if !tree.Isomorphic(old, again) {
		t.Fatal("same seed must generate identical trees")
	}
	if tree.Isomorphic(old, new) {
		t.Fatal("edit 1 left the new tree unedited")
	}
	if _, same := gen.MultiLabelPair(3, 4, 60, 0); !tree.Isomorphic(old, same) {
		t.Fatal("edit 0 must return a copy")
	}
	if got := old.Root().NumChildren(); got != 60 {
		t.Fatalf("%d slots, want 60", got)
	}
	internal, leaf := map[tree.Label]bool{}, map[tree.Label]bool{}
	for _, slot := range old.Root().Children() {
		if n := slot.NumChildren(); n < 2 || n > 5 {
			t.Fatalf("slot %v has %d leaves, want 2–5", slot, n)
		}
		internal[slot.Label()] = true
		for _, l := range slot.Children() {
			if !l.IsLeaf() {
				t.Fatalf("slot child %v is not a leaf", l)
			}
			leaf[l.Label()] = true
		}
	}
	// Every name appears, so each rank group holds four labels.
	if len(internal) != 4 || len(leaf) != 4 {
		t.Fatalf("internal labels %v, leaf labels %v; want 4 of each", internal, leaf)
	}
}

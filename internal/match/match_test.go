package match_test

import (
	"fmt"
	"math"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

func TestMatchingBijection(t *testing.T) {
	m := NewMatching()
	if err := m.Add(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(1, 11); err == nil {
		t.Fatal("expected error re-matching old node")
	}
	if err := m.Add(2, 10); err == nil {
		t.Fatal("expected error re-matching new node")
	}
	if y, ok := m.ToNew(1); !ok || y != 10 {
		t.Fatalf("ToNew = %d,%v", y, ok)
	}
	if x, ok := m.ToOld(10); !ok || x != 1 {
		t.Fatalf("ToOld = %d,%v", x, ok)
	}
	if !m.Has(1, 10) || m.Has(1, 11) {
		t.Fatal("Has wrong")
	}
	m.Remove(1)
	if m.Len() != 0 || m.MatchedNew(10) {
		t.Fatal("Remove did not clear both directions")
	}
}

func TestMatchingPairsSortedAndClone(t *testing.T) {
	m := NewMatching()
	for _, p := range [][2]tree.NodeID{{5, 50}, {1, 10}, {3, 30}} {
		if err := m.Add(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	pairs := m.Pairs()
	if len(pairs) != 3 || pairs[0].Old != 1 || pairs[2].Old != 5 {
		t.Fatalf("Pairs = %v", pairs)
	}
	cp := m.Clone()
	cp.Remove(1)
	if !m.MatchedOld(1) {
		t.Fatal("Clone shares state")
	}
	if !m.Contains(cp) {
		t.Fatal("m should contain its own subset")
	}
	if cp.Contains(m) {
		t.Fatal("subset should not contain superset")
	}
}

func TestMatchingValidate(t *testing.T) {
	t1 := tree.MustParse(`doc
  s "a"`)
	t2 := tree.MustParse(`doc
  s "a"`)
	m := NewMatching()
	if err := m.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(t1, t2); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	bad := NewMatching()
	if err := bad.Add(2, 1); err != nil { // s matched to doc: label mismatch
		t.Fatal(err)
	}
	if err := bad.Validate(t1, t2); err == nil {
		t.Fatal("expected label-mismatch error")
	}
	missing := NewMatching()
	if err := missing.Add(99, 1); err != nil {
		t.Fatal(err)
	}
	if err := missing.Validate(t1, t2); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func TestOptionsValidation(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 1})
	if _, err := FastMatch(doc, doc.Clone(), Options{LeafThreshold: 1.5}); err == nil {
		t.Fatal("expected error for f > 1")
	}
	if _, err := FastMatch(doc, doc.Clone(), Options{InternalThreshold: 0.3}); err == nil {
		t.Fatal("expected error for t < 0.5")
	}
	if _, err := FastMatch(doc, tree.New(), Options{}); err == nil {
		t.Fatal("expected error for empty tree")
	}
}

// TestOptionsRejectNaN: NaN compares false with every bound, so a range
// check written as "x < lo || x > hi" would let it through, and a NaN f
// then matches no leaf at all.
func TestOptionsRejectNaN(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 1})
	for name, algo := range map[string]func(*tree.Tree, *tree.Tree, Options) (*Matching, error){
		"Match":     Match,
		"FastMatch": FastMatch,
	} {
		if _, err := algo(doc, doc.Clone(), Options{LeafThreshold: math.NaN()}); err == nil {
			t.Errorf("%s: expected error for f = NaN", name)
		}
		if _, err := algo(doc, doc.Clone(), Options{InternalThreshold: math.NaN()}); err == nil {
			t.Errorf("%s: expected error for t = NaN", name)
		}
	}
}

// TestCustomCompareCalledPerLeafCompare: a caller's comparer runs once
// for every logical leaf compare (r1), byte-identical values included;
// the identical-value shortcut belongs to the default token path only.
func TestCustomCompareCalledPerLeafCompare(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 21, Sections: 4})
	pert, err := gen.Perturb(doc, gen.Mix(77, 12))
	if err != nil {
		t.Fatal(err)
	}
	for name, t2 := range map[string]*tree.Tree{"clone": doc.Clone(), "perturbed": pert.New} {
		var calls, identical int64
		stats := &Stats{}
		cmp := func(a, b string) float64 {
			calls++
			if a == b {
				identical++
			}
			return compare.WordLCS(a, b)
		}
		if _, err := FastMatch(doc, t2, Options{Compare: cmp, Stats: stats, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		if calls != stats.LeafCompares || identical == 0 {
			t.Errorf("%s: comparer called %d times (%d identical pairs), r1 = %d",
				name, calls, identical, stats.LeafCompares)
		}
	}
}

func TestIdenticalTreesFullyMatched(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 2})
	cp := doc.Clone()
	for name, algo := range map[string]func(*tree.Tree, *tree.Tree, Options) (*Matching, error){
		"Match":     Match,
		"FastMatch": FastMatch,
	} {
		m, err := algo(doc, cp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Len() != doc.Len() {
			t.Fatalf("%s matched %d of %d nodes", name, m.Len(), doc.Len())
		}
		if err := m.Validate(doc, cp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Identical clones: every node must match its own continuation.
		for _, p := range m.Pairs() {
			if p.Old != p.New {
				t.Fatalf("%s: node %d matched to %d on an identical clone", name, p.Old, p.New)
			}
		}
	}
}

// TestTheorem52Agreement checks the uniqueness theorem empirically: when
// Criterion 3 holds (distinct sentences: large vocabulary, no duplicate
// generation) and labels are acyclic, Match and FastMatch must produce
// the identical matching.
func TestTheorem52Agreement(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			doc := gen.Document(gen.DocParams{Seed: seed, Vocabulary: 4000, MinWords: 10, MaxWords: 16})
			pert, err := gen.Perturb(doc, gen.Mix(seed+99, 8))
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckAcyclicLabels(doc, pert.New); err != nil {
				t.Fatalf("labels should be acyclic: %v", err)
			}
			m1, err := Match(doc, pert.New, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m2, err := FastMatch(doc, pert.New, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m1.Len() != m2.Len() || !m1.Contains(m2) || !m2.Contains(m1) {
				t.Fatalf("Match (%d pairs) and FastMatch (%d pairs) disagree", m1.Len(), m2.Len())
			}
		})
	}
}

// TestGroundTruthRecovery: with distinct sentences and a light
// perturbation, the matchers should recover (at least) the ground-truth
// correspondence for every surviving, unmodified node.
func TestGroundTruthRecovery(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 11, Vocabulary: 5000, MinWords: 10, MaxWords: 18})
	pert, err := gen.Perturb(doc, gen.PerturbParams{Seed: 4, DeleteSentences: 2, InsertSentences: 2, MoveSentences: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FastMatch(doc, pert.New, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving sentence kept its value, so it must be matched to
	// its own continuation.
	for _, p := range pert.Truth.Pairs() {
		n := doc.Node(p.Old)
		if n == nil || !n.IsLeaf() {
			continue
		}
		got, ok := m.ToNew(p.Old)
		if !ok {
			t.Fatalf("surviving sentence %v unmatched", n)
		}
		if got != p.New {
			t.Fatalf("sentence %v matched to %d, truth %d", n, got, p.New)
		}
	}
}

func TestStatsCountersAndFastMatchAdvantage(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 21, Sections: 10, Vocabulary: 5000})
	pert, err := gen.Perturb(doc, gen.Mix(77, 20))
	if err != nil {
		t.Fatal(err)
	}
	slow := &Stats{}
	if _, err := Match(doc, pert.New, Options{Stats: slow}); err != nil {
		t.Fatal(err)
	}
	fast := &Stats{}
	if _, err := FastMatch(doc, pert.New, Options{Stats: fast}); err != nil {
		t.Fatal(err)
	}
	if slow.LeafCompares == 0 || fast.LeafCompares == 0 {
		t.Fatal("stats not recorded")
	}
	// The paper's headline (§5.3) is that FastMatch needs fewer
	// comparisons than Match. Our Match is first-fit, which is already
	// adaptive on documents that stay roughly aligned, so the measured
	// gap here is modest; the full scaling separation is exercised by the
	// benchmark harness (experiment E6). Here we assert FastMatch is
	// never worse.
	if fast.LeafCompares > slow.LeafCompares {
		t.Fatalf("FastMatch compares = %d exceed Match compares = %d",
			fast.LeafCompares, slow.LeafCompares)
	}
}

func TestCheckAcyclicLabels(t *testing.T) {
	good := tree.MustParse(`doc
  section "s"
    paragraph
      sentence "x"`)
	if err := CheckAcyclicLabels(good); err != nil {
		t.Fatalf("acyclic schema rejected: %v", err)
	}
	selfNest := tree.MustParse(`doc
  list
    list
      item "x"`)
	if err := CheckAcyclicLabels(selfNest); err == nil {
		t.Fatal("self-nesting label should be rejected")
	}
	// A cycle across two trees: a under b in one, b under a in the other.
	c1 := tree.MustParse(`doc
  a
    b "x"`)
	c2 := tree.MustParse(`doc
  b
    a "x"`)
	if err := CheckAcyclicLabels(c1, c2); err == nil {
		t.Fatal("cross-tree label cycle should be rejected")
	}
	if err := CheckAcyclicLabels(nil, tree.New()); err != nil {
		t.Fatalf("empty inputs should be fine: %v", err)
	}
}

func TestCriterion3Violations(t *testing.T) {
	// Two near-identical sentences in the new tree both lie within
	// distance 1 of the single old sentence.
	t1 := tree.MustParse(`doc
  s "the quick brown fox jumps"
  s "completely unrelated sentence entirely"`)
	t2 := tree.MustParse(`doc
  s "the quick brown fox jumps"
  s "the quick brown fox leaps"
  s "completely unrelated sentence entirely"`)
	oldV, newV, err := Criterion3Violations(t1, t2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(oldV) != 1 {
		t.Fatalf("old violations = %v, want exactly the fox sentence", oldV)
	}
	// Each new fox sentence has exactly one close old counterpart, so
	// the new side is violation-free: Criterion 3 is asymmetric here.
	if len(newV) != 0 {
		t.Fatalf("new violations = %v, want none", newV)
	}
}

func TestCriterion3CleanDocument(t *testing.T) {
	doc := gen.Document(gen.DocParams{Seed: 3, Vocabulary: 8000, MinWords: 12, MaxWords: 20})
	pert, err := gen.Perturb(doc, gen.Mix(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	oldV, newV, err := Criterion3Violations(doc, pert.New, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(oldV)+len(newV) != 0 {
		t.Fatalf("distinct-sentence document reported violations: %v / %v", oldV, newV)
	}
}

func TestMismatchBoundMonotonicInT(t *testing.T) {
	// A document with aggressive duplicate generation.
	doc := gen.Document(gen.DocParams{Seed: 9, DuplicateRate: 0.35, Vocabulary: 60, MinWords: 4, MaxWords: 7})
	pert, err := gen.Perturb(doc, gen.Mix(13, 10))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, thr := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		frac, flagged, total, err := MismatchBound(doc, pert.New, gen.LabelParagraph, thr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if total == 0 {
			t.Fatal("no paragraphs audited")
		}
		if frac < prev {
			t.Fatalf("mismatch bound decreased from %v to %v at t=%v", prev, frac, thr)
		}
		if flagged > total {
			t.Fatalf("flagged %d of %d", flagged, total)
		}
		prev = frac
	}
	if prev == 0 {
		t.Fatal("duplicate-heavy document should flag some paragraphs at t=1.0")
	}
}

func TestPostProcessRepairsStolenMatch(t *testing.T) {
	// Construct a sub-optimal matching by hand: two paragraphs with
	// similar sentences, where the leaf was matched across paragraphs
	// even though a same-parent candidate exists.
	t1 := tree.MustParse(`doc
  paragraph
    sentence "shared words one two three"
  paragraph
    sentence "other content here entirely"`)
	t2 := tree.MustParse(`doc
  paragraph
    sentence "shared words one two three"
  paragraph
    sentence "other content here entirely"`)
	m := NewMatching()
	// doc–doc, paragraphs straight, but sentences crossed is not
	// possible (they're too far apart); instead leave sentence 3
	// matched to the wrong paragraph's child slot by matching its
	// paragraph straight and the sentence diagonally... Build: sentence
	// of para 1 matched to sentence of para 2's position? Their values
	// differ beyond f, so PostProcess cannot and should not rewrite.
	// Use identical sentences instead to give PostProcess a repair.
	t1 = tree.MustParse(`doc
  paragraph
    sentence "dup dup dup dup"
  paragraph
    sentence "dup dup dup dup"`)
	t2 = tree.MustParse(`doc
  paragraph
    sentence "dup dup dup dup"
  paragraph
    sentence "dup dup dup dup"`)
	mustAdd := func(a, b tree.NodeID) {
		if err := m.Add(a, b); err != nil {
			t.Fatal(err)
		}
	}
	// IDs: doc=1, para=2, sent=3, para=4, sent=5 in both trees.
	mustAdd(1, 1)
	mustAdd(2, 2)
	mustAdd(4, 4)
	mustAdd(3, 5) // crossed: sentence of para 2 matched into para 4
	mustAdd(5, 3)
	rewritten, err := PostProcess(t1, t2, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = rewritten
	// After repair both sentences must be matched within their own
	// paragraphs.
	if got, _ := m.ToNew(3); got != 3 {
		t.Fatalf("sentence 3 matched to %d after post-process, want 3", got)
	}
	if got, _ := m.ToNew(5); got != 5 {
		t.Fatalf("sentence 5 matched to %d after post-process, want 5", got)
	}
}

package match

import (
	"testing"

	"ladiff/internal/tree"
)

func pruneTrees(t *testing.T, src1, src2 string) (*tree.Tree, *tree.Tree) {
	t.Helper()
	t1, err := tree.Parse(src1)
	if err != nil {
		t.Fatalf("Parse t1: %v", err)
	}
	t2, err := tree.Parse(src2)
	if err != nil {
		t.Fatalf("Parse t2: %v", err)
	}
	return t1, t2
}

// TestPruneWholesaleMatch: a document with one edited paragraph out of
// three must have both untouched paragraphs claimed wholesale, and the
// final matching must still be a valid maximal matching equal in
// coverage to the unpruned run.
func TestPruneWholesaleMatch(t *testing.T) {
	src1 := `
document
  paragraph
    sentence "alpha beta gamma"
    sentence "delta epsilon"
  paragraph
    sentence "zeta eta theta"
  paragraph
    sentence "iota kappa lambda"
`
	src2 := `
document
  paragraph
    sentence "alpha beta gamma"
    sentence "delta epsilon"
  paragraph
    sentence "zeta eta CHANGED"
  paragraph
    sentence "iota kappa lambda"
`
	t1, t2 := pruneTrees(t, src1, src2)

	stats := &Stats{}
	m, err := FastMatch(t1, t2, Options{PruneIdentical: true, Stats: stats})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if stats.PrunedSubtrees < 2 {
		t.Errorf("PrunedSubtrees = %d, want ≥ 2 (two untouched paragraphs)", stats.PrunedSubtrees)
	}
	if stats.PrunedPairs != 5 {
		t.Errorf("PrunedPairs = %d, want 5 (3-node and 2-node paragraphs)", stats.PrunedPairs)
	}
	if err := m.Validate(t1, t2); err != nil {
		t.Fatalf("pruned matching invalid: %v", err)
	}

	base, err := FastMatch(t1, t2, Options{})
	if err != nil {
		t.Fatalf("unpruned FastMatch: %v", err)
	}
	if m.Len() != base.Len() {
		t.Errorf("pruned matching has %d pairs, unpruned %d", m.Len(), base.Len())
	}
	// Identical subtrees must pair structurally: every pair label-equal
	// and, for leaves claimed by pruning, value-equal.
	for _, p := range m.Pairs() {
		x, y := t1.Node(p.Old), t2.Node(p.New)
		if x.Label() != y.Label() {
			t.Errorf("pair %v/%v has mismatched labels", x, y)
		}
	}
}

// TestPruneDisabledUntouched: with the knob off, the pruning counters
// stay zero and the matching equals the always-disabled baseline.
func TestPruneDisabledUntouched(t *testing.T) {
	src := `
document
  paragraph
    sentence "one two three"
    sentence "four five"
`
	t1, t2 := pruneTrees(t, src, src)
	stats := &Stats{}
	m, err := FastMatch(t1, t2, Options{Stats: stats})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if stats.PrunedSubtrees != 0 || stats.PrunedPairs != 0 || stats.PruneVerifyNodes != 0 {
		t.Errorf("disabled run bumped prune counters: %+v", stats)
	}
	if m.Len() != t1.Len() {
		t.Errorf("identical trees matched %d of %d nodes", m.Len(), t1.Len())
	}
}

// TestPruneIdenticalTrees: two identical trees are fully claimed by the
// pruning pass — the label rounds see empty residue chains.
func TestPruneIdenticalTrees(t *testing.T) {
	src := `
document
  section
    paragraph
      sentence "the quick brown fox"
    paragraph
      sentence "jumps over the dog"
`
	t1, t2 := pruneTrees(t, src, src)
	stats := &Stats{}
	m, err := FastMatch(t1, t2, Options{PruneIdentical: true, Stats: stats})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if m.Len() != t1.Len() {
		t.Fatalf("matched %d of %d nodes", m.Len(), t1.Len())
	}
	if stats.PrunedSubtrees != 1 {
		t.Errorf("PrunedSubtrees = %d, want 1 (one root claim)", stats.PrunedSubtrees)
	}
	if stats.PrunedPairs != int64(t1.Len()) {
		t.Errorf("PrunedPairs = %d, want %d", stats.PrunedPairs, t1.Len())
	}
	// The residue rounds had nothing left to compare.
	if stats.LeafCompares != 0 || stats.PartnerChecks != 0 {
		t.Errorf("residue rounds did work on identical trees: r1=%d r2=%d",
			stats.LeafCompares, stats.PartnerChecks)
	}
}

// TestPruneForcedCollision is the collision-guard proof: with a
// test-only combiner hashing EVERY subtree to the same fingerprint,
// all candidate probes collide, and only the structural verification
// stands between a collision and a wrong wholesale match. The matching
// must come out exactly as correct as with the real hash.
func TestPruneForcedCollision(t *testing.T) {
	src1 := `
root
  a "x"
  b "y"
`
	src2 := `
root
  b "y"
  a "x"
`
	t1, t2 := pruneTrees(t, src1, src2)
	weak := func(tree.Label, string, []tree.Fingerprint) tree.Fingerprint {
		return tree.Fingerprint{Hi: 0xDEAD, Lo: 0xBEEF}
	}
	stats := &Stats{}
	m, err := FastMatch(t1, t2, Options{
		PruneIdentical: true,
		PruneFP1:       tree.BuildFingerprints(t1, weak),
		PruneFP2:       tree.BuildFingerprints(t2, weak),
		Stats:          stats,
	})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if err := m.Validate(t1, t2); err != nil {
		t.Fatalf("matching invalid under forced collisions: %v", err)
	}
	// The guard must have rejected probes (every pair of distinct
	// subtrees collides) yet still committed the truly identical ones.
	a1 := t1.Root().Child(1) // a "x"
	b1 := t1.Root().Child(2) // b "y"
	a2 := t2.Root().Child(2) // a "x"
	b2 := t2.Root().Child(1) // b "y"
	if !m.Has(a1.ID(), a2.ID()) {
		t.Error(`leaf a "x" not matched to its identical counterpart`)
	}
	if !m.Has(b1.ID(), b2.ID()) {
		t.Error(`leaf b "y" not matched to its identical counterpart`)
	}
	for _, p := range m.Pairs() {
		x, y := t1.Node(p.Old), t2.Node(p.New)
		if x.Label() != y.Label() {
			t.Errorf("collision committed a cross-label pair %v/%v", x, y)
		}
	}
	if stats.PruneVerifyNodes == 0 {
		t.Error("collision guard never ran")
	}
}

// TestPruneRespectsKeyPass: subtrees containing a node already matched
// by the key pre-pass must not be claimed wholesale — the one-to-one
// invariant would break. The key pass here cross-matches two keyed
// sentences that sit inside otherwise-identical paragraphs.
func TestPruneRespectsKeyPass(t *testing.T) {
	src1 := `
document
  paragraph
    sentence "k1"
    sentence "same text"
`
	src2 := `
document
  paragraph
    sentence "k1"
    sentence "same text"
`
	t1, t2 := pruneTrees(t, src1, src2)
	key := func(n *tree.Node) (string, bool) {
		if n.Label() == "sentence" && n.Value() == "k1" {
			return "k1", true
		}
		return "", false
	}
	m, err := FastMatch(t1, t2, Options{PruneIdentical: true, Key: key})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if err := m.Validate(t1, t2); err != nil {
		t.Fatalf("matching invalid with keys + pruning: %v", err)
	}
	if m.Len() != t1.Len() {
		t.Errorf("matched %d of %d nodes", m.Len(), t1.Len())
	}
}

// TestPruneMatchQuadratic: the pruning pass runs under Algorithm Match
// too, not just FastMatch.
func TestPruneMatchQuadratic(t *testing.T) {
	src := `
document
  paragraph
    sentence "shared one"
  paragraph
    sentence "shared two"
`
	t1, t2 := pruneTrees(t, src, src)
	stats := &Stats{}
	m, err := Match(t1, t2, Options{PruneIdentical: true, Stats: stats})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if m.Len() != t1.Len() {
		t.Errorf("matched %d of %d nodes", m.Len(), t1.Len())
	}
	if stats.PrunedPairs != int64(t1.Len()) {
		t.Errorf("PrunedPairs = %d, want %d", stats.PrunedPairs, t1.Len())
	}
}

// TestPruneDuplicateSubtrees: with repeated identical subtrees on both
// sides, claims are first-fit in document order and stay one-to-one.
func TestPruneDuplicateSubtrees(t *testing.T) {
	src := `
document
  item "dup"
  item "dup"
  item "dup"
`
	t1, t2 := pruneTrees(t, src, src)
	stats := &Stats{}
	m, err := FastMatch(t1, t2, Options{PruneIdentical: true, Stats: stats})
	if err != nil {
		t.Fatalf("FastMatch: %v", err)
	}
	if err := m.Validate(t1, t2); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	if m.Len() != t1.Len() {
		t.Errorf("matched %d of %d nodes", m.Len(), t1.Len())
	}
	// First-fit in document order: the i-th duplicate pairs with the
	// i-th duplicate.
	for i := 1; i <= 3; i++ {
		x := t1.Root().Child(i)
		y := t2.Root().Child(i)
		if !m.Has(x.ID(), y.ID()) {
			t.Errorf("duplicate %d not matched positionally", i)
		}
	}
}

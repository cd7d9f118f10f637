package tree

import (
	"testing"
)

func fpDoc(t *testing.T) *Tree {
	t.Helper()
	tr, err := Parse(`
document
  section
    paragraph
      sentence "the quick brown fox"
      sentence "jumps over"
    paragraph
      sentence "the lazy dog"
  section
    paragraph
      sentence "second section"
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return tr
}

// TestFingerprintIgnoresIDs: fingerprints depend on content only, not
// node identifiers — two trees built in different ID orders but with
// identical shape, labels, and values must agree on every subtree.
func TestFingerprintIgnoresIDs(t *testing.T) {
	t1 := fpDoc(t)
	// Same content, different IDs: clone then rebuild via String round
	// trip after perturbing the ID space with a scratch insert+delete.
	t2 := fpDoc(t)
	scratch := t2.AppendChild(t2.Root(), "scratch", "")
	if err := t2.Delete(scratch); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	extra := t2.AppendChild(t2.Root().Child(1), "paragraph", "")
	if err := t2.Delete(extra); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if !Isomorphic(t1, t2) {
		t.Fatal("setup: trees must be isomorphic")
	}
	if t1.Fingerprints().Root() != t2.Fingerprints().Root() {
		t.Fatal("isomorphic trees have different root fingerprints")
	}
}

// TestFingerprintDistinguishesContent: any visible difference — label,
// value, child order, shape — changes the root fingerprint.
func TestFingerprintDistinguishesContent(t *testing.T) {
	base := fpDoc(t).Fingerprints().Root()

	valueEdit := fpDoc(t)
	valueEdit.SetValue(valueEdit.Leaves()[0], "a different sentence")
	if valueEdit.Fingerprints().Root() == base {
		t.Error("value edit did not change root fingerprint")
	}

	shapeEdit := fpDoc(t)
	shapeEdit.AppendChild(shapeEdit.Root().Child(2).Child(1), "sentence", "extra")
	if shapeEdit.Fingerprints().Root() == base {
		t.Error("insert did not change root fingerprint")
	}

	orderEdit := fpDoc(t)
	first := orderEdit.Root().Child(1).Child(1).Child(1)
	if err := orderEdit.Move(first, first.Parent(), 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if orderEdit.Fingerprints().Root() == base {
		t.Error("sibling reorder did not change root fingerprint")
	}
}

// TestFingerprintInvalidation audits every mutation path — SetValue,
// InsertChild, InsertChildID, Delete, Move, WrapRoot — asserting that
// the cached index is dropped and the recomputed fingerprint equals a
// fresh build of the mutated tree. A stale cache would freeze the
// pre-mutation hash and silently poison the matcher's pruning pass and
// the serving cache key.
func TestFingerprintInvalidation(t *testing.T) {
	fresh := func(tr *Tree) Fingerprint { return BuildFingerprints(tr, nil).Root() }

	mutations := []struct {
		name string
		do   func(t *testing.T, tr *Tree)
	}{
		{"SetValue", func(t *testing.T, tr *Tree) {
			tr.SetValue(tr.Leaves()[1], "rewritten")
		}},
		{"InsertChild", func(t *testing.T, tr *Tree) {
			tr.InsertChild(tr.Root().Child(1), 1, "paragraph", "")
		}},
		{"InsertChildID", func(t *testing.T, tr *Tree) {
			if _, err := tr.InsertChildID(tr.Root().Child(2), 1, 9999, "paragraph", ""); err != nil {
				t.Fatalf("InsertChildID: %v", err)
			}
		}},
		{"Delete", func(t *testing.T, tr *Tree) {
			if err := tr.Delete(tr.Leaves()[0]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}},
		{"Move", func(t *testing.T, tr *Tree) {
			leaf := tr.Leaves()[0]
			if err := tr.Move(leaf, tr.Root().Child(2).Child(1), 1); err != nil {
				t.Fatalf("Move: %v", err)
			}
		}},
		{"WrapRoot", func(t *testing.T, tr *Tree) {
			tr.WrapRoot("wrapper", "")
		}},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			tr := fpDoc(t)
			before := tr.Fingerprints().Root() // warm the cache
			mu.do(t, tr)
			after := tr.Fingerprints().Root()
			if after == before {
				t.Errorf("%s: cached fingerprint survived the mutation", mu.name)
			}
			if want := fresh(tr); after != want {
				t.Errorf("%s: cached fingerprint %v != fresh rebuild %v", mu.name, after, want)
			}
		})
	}
}

// TestFingerprintCloneFresh: Clone does not carry the cache, and the
// clone's fingerprints equal the original's (same content, new cache).
func TestFingerprintCloneFresh(t *testing.T) {
	tr := fpDoc(t)
	orig := tr.Fingerprints().Root()
	cl := tr.Clone()
	if got := cl.Fingerprints().Root(); got != orig {
		t.Fatalf("clone fingerprint %v != original %v", got, orig)
	}
	// Mutating the clone must not disturb the original's cache.
	cl.SetValue(cl.Leaves()[0], "clone-only edit")
	if got := tr.Fingerprints().Root(); got != orig {
		t.Fatalf("original fingerprint changed after clone mutation: %v != %v", got, orig)
	}
}

// TestFingerprintPerNode: Of() answers for every node, leaves hash by
// (label, value), and equal-content siblings agree.
func TestFingerprintPerNode(t *testing.T) {
	tr, err := Parse(`
root
  item "same"
  item "same"
  item "other"
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ix := tr.Fingerprints()
	if ix.Len() != tr.Len() {
		t.Fatalf("index covers %d nodes, tree has %d", ix.Len(), tr.Len())
	}
	kids := tr.Root().Children()
	f0, ok0 := ix.Of(kids[0].ID())
	f1, ok1 := ix.Of(kids[1].ID())
	f2, ok2 := ix.Of(kids[2].ID())
	if !ok0 || !ok1 || !ok2 {
		t.Fatal("Of() missing a node")
	}
	if f0 != f1 {
		t.Error("identical siblings disagree")
	}
	if f0 == f2 {
		t.Error("different values collide")
	}
	if _, ok := ix.Of(12345); ok {
		t.Error("Of() answered for an ID outside the tree")
	}
	// A deleted node leaves a hole below IDBound, which Of must not
	// answer for either.
	gone := kids[2].ID()
	if err := tr.Delete(kids[2]); err != nil {
		t.Fatal(err)
	}
	ix = tr.Fingerprints()
	if _, ok := ix.Of(gone); ok || ix.Len() != tr.Len() {
		t.Errorf("after a delete: Of(%d) answered %v, Len %d for %d nodes", gone, ok, ix.Len(), tr.Len())
	}
}

// TestBuildFingerprintsWeakCombiner: the injectable combiner is honored
// — a constant combiner maps every subtree to one value. This is the
// hook the matcher's forced-collision test uses.
func TestBuildFingerprintsWeakCombiner(t *testing.T) {
	tr := fpDoc(t)
	weak := func(Label, string, []Fingerprint) Fingerprint { return Fingerprint{Hi: 1, Lo: 1} }
	ix := BuildFingerprints(tr, weak)
	for _, n := range tr.PreOrder() {
		f, ok := ix.Of(n.ID())
		if !ok || f != (Fingerprint{Hi: 1, Lo: 1}) {
			t.Fatalf("weak combiner not honored at %v: %v (ok=%v)", n, f, ok)
		}
	}
	// The tree's own cache must be untouched by a custom build.
	if tr.Fingerprints().Root() == (Fingerprint{Hi: 1, Lo: 1}) {
		t.Fatal("BuildFingerprints polluted the tree's cache")
	}
}

// TestBuildFingerprintsAllocs: the table is one slice indexed by ID,
// and every node hashes its children from one shared stack, so a build
// allocates the index, its table and the stack, however many internal
// nodes the tree has (while the stack stays within its first 16
// entries).
func TestBuildFingerprintsAllocs(t *testing.T) {
	tr := fpDoc(t)
	if n := testing.AllocsPerRun(100, func() { BuildFingerprints(tr, nil) }); n > 3 {
		t.Errorf("%v allocations per build, want at most 3", n)
	}
}

// TestFingerprintEmptyTree: an empty tree has the zero root
// fingerprint, distinct from every real tree's.
func TestFingerprintEmptyTree(t *testing.T) {
	empty := New()
	if !empty.Fingerprints().Root().IsZero() {
		t.Fatal("empty tree root fingerprint is not zero")
	}
	if fpDoc(t).Fingerprints().Root().IsZero() {
		t.Fatal("non-empty tree hashed to the reserved zero fingerprint")
	}
}

package tree

import (
	"math/rand"
	"slices"
	"testing"
)

func buildSampleTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Parse(`doc(1)
  section(2)
    paragraph(3)
      sentence(4) "alpha beta"
      sentence(5) "gamma"
    paragraph(6)
  section(7)
    paragraph(8)
      sentence(9) "delta"
`)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestIndexAncestor cross-checks the interval test against the pointer
// climb for every ordered node pair.
func TestIndexAncestor(t *testing.T) {
	tr := buildSampleTree(t)
	ix := tr.Index()
	nodes := tr.PreOrder()
	for _, a := range nodes {
		for _, n := range nodes {
			want := IsAncestor(a, n)
			if got := ix.IsAncestor(a, n); got != want {
				t.Errorf("Index.IsAncestor(%v, %v) = %v, want %v", a, n, got, want)
			}
		}
	}
}

// TestIndexLeaves cross-checks the cached leaf spans against the
// recursive enumeration, including the childless-internal ("empty
// paragraph") case where a structurally internal node counts as a leaf.
func TestIndexLeaves(t *testing.T) {
	tr := buildSampleTree(t)
	ix := tr.Index()
	for _, n := range tr.PreOrder() {
		want := LeavesUnder(n)
		got := ix.LeavesUnder(n)
		if len(got) != len(want) {
			t.Fatalf("LeavesUnder(%v): index has %d leaves, recursion %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("LeavesUnder(%v)[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if gotN, wantN := ix.NumLeaves(n), NumLeaves(n); gotN != wantN {
			t.Fatalf("NumLeaves(%v) = %d, want %d", n, gotN, wantN)
		}
	}
}

// TestIndexChains cross-checks per-label chains against (*Tree).Chain.
func TestIndexChains(t *testing.T) {
	tr := buildSampleTree(t)
	ix := tr.Index()
	for _, label := range tr.Labels() {
		want := tr.Chain(label)
		got := ix.Chain(label)
		if len(got) != len(want) {
			t.Fatalf("Chain(%q): index has %d nodes, walk %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Chain(%q)[%d] = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// TestIndexInvalidation mutates the tree through every structural
// operation and checks that a fresh Index reflects the change.
func TestIndexInvalidation(t *testing.T) {
	tr := buildSampleTree(t)
	before := tr.Index()
	if tr.Index() != before {
		t.Fatal("index not cached between calls without mutation")
	}

	sec := tr.Node(7)
	added := tr.AppendChild(sec, "paragraph", "")
	after := tr.Index()
	if after == before {
		t.Fatal("insert did not invalidate the index")
	}
	if after.NumLeaves(sec) != NumLeaves(sec) {
		t.Fatal("index stale after insert")
	}

	if err := tr.Delete(added); err != nil {
		t.Fatal(err)
	}
	if tr.Index() == after {
		t.Fatal("delete did not invalidate the index")
	}

	idx := tr.Index()
	moved := tr.Node(9)
	if err := tr.Move(moved, tr.Node(3), 1); err != nil {
		t.Fatal(err)
	}
	if tr.Index() == idx {
		t.Fatal("move did not invalidate the index")
	}
	if got := tr.Index().NumLeaves(tr.Node(3)); got != NumLeaves(tr.Node(3)) {
		t.Fatalf("index stale after move: %d leaves", got)
	}

	idx = tr.Index()
	tr.SetValue(tr.Node(4), "updated")
	if tr.Index() != idx {
		t.Fatal("SetValue invalidated the index; values are not indexed")
	}

	tr.WrapRoot("super", "")
	if tr.Index() == idx {
		t.Fatal("WrapRoot did not invalidate the index")
	}
	if !tr.Index().IsAncestor(tr.Root(), tr.Node(4)) {
		t.Fatal("new root not an ancestor in rebuilt index")
	}
}

// TestIndexRandomTrees fuzzes the index invariants on random trees.
func TestIndexRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := NewWithRoot("root", "")
		nodes := []*Node{tr.Root()}
		for i := 0; i < 40; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			labels := []Label{"a", "b", "c", "d"}
			n := tr.AppendChild(parent, labels[rng.Intn(len(labels))], "")
			nodes = append(nodes, n)
		}
		ix := tr.Index()
		for i := 0; i < 60; i++ {
			a := nodes[rng.Intn(len(nodes))]
			n := nodes[rng.Intn(len(nodes))]
			if got, want := ix.IsAncestor(a, n), IsAncestor(a, n); got != want {
				t.Fatalf("trial %d: IsAncestor(%v, %v) = %v, want %v", trial, a, n, got, want)
			}
		}
		for _, n := range nodes {
			if ix.NumLeaves(n) != NumLeaves(n) {
				t.Fatalf("trial %d: NumLeaves(%v) mismatch", trial, n)
			}
		}
	}
}

// TestIndexChainsIndependent checks that the chains and the leaf
// sequence, which share one backing array, are carved at their exact
// sizes: every chain has len == cap, and appending to a chain or to the
// whole leaf sequence leaves every other chain as it was.
func TestIndexChainsIndependent(t *testing.T) {
	tr := buildSampleTree(t)
	ix := tr.Index()
	labels := tr.Labels()
	want := make(map[Label][]*Node)
	for _, l := range labels {
		want[l] = slices.Clone(ix.Chain(l))
	}
	wantLeaves := slices.Clone(ix.LeavesUnder(tr.Root()))
	extra := &Node{id: 999, label: "intruder"}
	for _, l := range labels {
		c := ix.Chain(l)
		if len(c) != cap(c) {
			t.Errorf("Chain(%q): len %d, cap %d", l, len(c), cap(c))
		}
		_ = append(c, extra)
	}
	all := ix.LeavesUnder(tr.Root())
	if len(all) != cap(all) {
		t.Errorf("leaf sequence: len %d, cap %d", len(all), cap(all))
	}
	_ = append(all, extra)
	for _, l := range labels {
		if got := ix.Chain(l); !slices.Equal(got, want[l]) {
			t.Errorf("Chain(%q) = %v after appends, want %v", l, got, want[l])
		}
	}
	if got := ix.LeavesUnder(tr.Root()); !slices.Equal(got, wantLeaves) {
		t.Errorf("leaf sequence = %v after appends, want %v", got, wantLeaves)
	}
}

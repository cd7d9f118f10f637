package tree

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Tree {
	t.Helper()
	tr := NewWithRoot("doc", "")
	s1 := tr.AppendChild(tr.Root(), "section", "intro")
	tr.AppendChild(s1, "sentence", "hello world")
	tr.AppendChild(s1, "sentence", "second sentence")
	s2 := tr.AppendChild(tr.Root(), "section", "body")
	p := tr.AppendChild(s2, "paragraph", "")
	tr.AppendChild(p, "sentence", "deep leaf")
	return tr
}

func TestBasicConstruction(t *testing.T) {
	tr := buildSample(t)
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	root := tr.Root()
	if root.Label() != "doc" || !root.IsRoot() || root.NumChildren() != 2 {
		t.Fatalf("unexpected root %v", root)
	}
	if got := root.Child(1).Value(); got != "intro" {
		t.Fatalf("first child value = %q", got)
	}
	if got := root.Child(2).Child(1).Label(); got != "paragraph" {
		t.Fatalf("grandchild label = %q", got)
	}
}

func TestChildIndexAndSiblings(t *testing.T) {
	tr := buildSample(t)
	sec := tr.Root().Child(2)
	if sec.ChildIndex() != 2 {
		t.Fatalf("ChildIndex = %d, want 2", sec.ChildIndex())
	}
	left := sec.LeftSiblings()
	if len(left) != 1 || left[0].Value() != "intro" {
		t.Fatalf("LeftSiblings = %v", left)
	}
	if tr.Root().ChildIndex() != 0 {
		t.Fatalf("root ChildIndex should be 0")
	}
}

func TestInsertChildPositions(t *testing.T) {
	tr := NewWithRoot("r", "")
	a := tr.AppendChild(tr.Root(), "x", "a")
	c := tr.AppendChild(tr.Root(), "x", "c")
	b := tr.InsertChild(tr.Root(), 2, "x", "b")
	order := tr.Root().Children()
	if order[0] != a || order[1] != b || order[2] != c {
		t.Fatalf("children out of order: %v", order)
	}
	front := tr.InsertChild(tr.Root(), 1, "x", "front")
	if tr.Root().Child(1) != front {
		t.Fatalf("front insert failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestInsertChildIDErrors(t *testing.T) {
	tr := NewWithRoot("r", "")
	if _, err := tr.InsertChildID(tr.Root(), 1, 0, "x", ""); err == nil {
		t.Fatal("expected error for non-positive ID")
	}
	if _, err := tr.InsertChildID(tr.Root(), 1, 1, "x", ""); err == nil {
		t.Fatal("expected error for duplicate ID (root is 1)")
	}
	if _, err := tr.InsertChildID(tr.Root(), 5, 99, "x", ""); err == nil {
		t.Fatal("expected error for out-of-range position")
	}
	n, err := tr.InsertChildID(tr.Root(), 1, 99, "x", "v")
	if err != nil || n.ID() != 99 {
		t.Fatalf("InsertChildID: %v, %v", n, err)
	}
	// The allocator must have advanced past the explicit ID.
	m := tr.AppendChild(tr.Root(), "x", "w")
	if m.ID() <= 99 {
		t.Fatalf("allocator did not advance: got %d", m.ID())
	}
}

func TestDeleteOnlyLeaves(t *testing.T) {
	tr := buildSample(t)
	sec := tr.Root().Child(1)
	if err := tr.Delete(sec); err == nil {
		t.Fatal("expected error deleting interior node")
	}
	leaf := sec.Child(1)
	id := leaf.ID()
	if err := tr.Delete(leaf); err != nil {
		t.Fatalf("Delete leaf: %v", err)
	}
	if tr.Contains(id) {
		t.Fatal("deleted node still indexed")
	}
	if sec.NumChildren() != 1 {
		t.Fatalf("sibling count after delete = %d", sec.NumChildren())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDeleteRootLeaf(t *testing.T) {
	tr := NewWithRoot("only", "")
	if err := tr.Delete(tr.Root()); err != nil {
		t.Fatalf("Delete root leaf: %v", err)
	}
	if tr.Root() != nil || tr.Len() != 0 {
		t.Fatal("tree not empty after deleting root leaf")
	}
}

func TestMoveSemantics(t *testing.T) {
	tr := buildSample(t)
	s1 := tr.Root().Child(1)
	s2 := tr.Root().Child(2)
	leaf := s1.Child(1)
	if err := tr.Move(leaf, s2, 1); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if leaf.Parent() != s2 || s2.Child(1) != leaf {
		t.Fatal("move did not land at position 1")
	}
	// Moving the root is rejected.
	if err := tr.Move(tr.Root(), s2, 1); err == nil {
		t.Fatal("expected error moving root")
	}
	// Moving a node under its own subtree is rejected and leaves the
	// tree valid.
	if err := tr.Move(s2, leaf, 1); err == nil {
		t.Fatal("expected error moving under own subtree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after rejected moves: %v", err)
	}
}

// TestMoveOutOfRangeLeavesTreeUnchanged: a move to a position outside
// the post-detach range fails before anything is detached, so the tree,
// its validity and its maintained position index are as before.
func TestMoveOutOfRangeLeavesTreeUnchanged(t *testing.T) {
	tr := buildSample(t)
	s1, s2 := tr.Root().Child(1), tr.Root().Child(2)
	ix := tr.Positions()
	ix.Rank(s1.Child(2))
	ix.Rank(s2)
	want := tr.String()
	for _, c := range []struct {
		n, parent *Node
		k         int
	}{
		{s1.Child(1), s2, 3}, // s2 has 1 child: range [1,2]
		{s1.Child(1), s1, 3}, // own parent, 2 children: range [1,2]
		{s1.Child(1), s1, 0},
	} {
		if err := tr.Move(c.n, c.parent, c.k); err == nil {
			t.Fatalf("Move(%v, %v, %d): expected error", c.n, c.parent, c.k)
		}
		if got := tr.String(); got != want {
			t.Fatalf("failed move changed the tree:\n%s\nwant\n%s", got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate after failed move: %v", err)
		}
		if err := ix.validate(); err != nil {
			t.Fatalf("PosIndex after failed move: %v", err)
		}
	}
}

func TestIntraParentMove(t *testing.T) {
	tr := NewWithRoot("r", "")
	var ids []NodeID
	for _, v := range []string{"a", "b", "c", "d"} {
		ids = append(ids, tr.AppendChild(tr.Root(), "x", v).ID())
	}
	// Move "a" to the last position: with detach-first semantics the
	// valid positions run 1..3 after detaching, so k=4 is out of range
	// and k=3... wait: 4 children, detach leaves 3, so k may be 1..4.
	a := tr.Node(ids[0])
	if err := tr.Move(a, tr.Root(), 4); err != nil {
		t.Fatalf("Move to end: %v", err)
	}
	var got []string
	for _, c := range tr.Root().Children() {
		got = append(got, c.Value())
	}
	if strings.Join(got, "") != "bcda" {
		t.Fatalf("order after move = %v", got)
	}
}

func TestWrapRoot(t *testing.T) {
	tr := buildSample(t)
	oldRoot := tr.Root()
	n := tr.WrapRoot("super", "")
	if tr.Root() != n || n.Child(1) != oldRoot || oldRoot.Parent() != n {
		t.Fatal("WrapRoot wiring wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTraversalOrders(t *testing.T) {
	tr := buildSample(t)
	var pre, post, bfs []string
	for _, n := range tr.PreOrder() {
		pre = append(pre, string(n.Label()))
	}
	for _, n := range tr.PostOrder() {
		post = append(post, string(n.Label()))
	}
	for _, n := range tr.BreadthFirst() {
		bfs = append(bfs, string(n.Label()))
	}
	wantPre := "doc section sentence sentence section paragraph sentence"
	wantPost := "sentence sentence section sentence paragraph section doc"
	wantBFS := "doc section section sentence sentence paragraph sentence"
	if strings.Join(pre, " ") != wantPre {
		t.Fatalf("pre-order = %v", pre)
	}
	if strings.Join(post, " ") != wantPost {
		t.Fatalf("post-order = %v", post)
	}
	if strings.Join(bfs, " ") != wantBFS {
		t.Fatalf("BFS = %v", bfs)
	}
}

func TestLeavesAndCounts(t *testing.T) {
	tr := buildSample(t)
	if got := len(tr.Leaves()); got != 3 {
		t.Fatalf("leaves = %d, want 3", got)
	}
	if got := NumLeaves(tr.Root()); got != 3 {
		t.Fatalf("NumLeaves(root) = %d, want 3", got)
	}
	leaf := tr.Leaves()[0]
	if NumLeaves(leaf) != 1 {
		t.Fatal("a leaf contains itself")
	}
	under := LeavesUnder(tr.Root().Child(1))
	if len(under) != 2 || under[0].Value() != "hello world" {
		t.Fatalf("LeavesUnder = %v", under)
	}
}

func TestChainAndLabels(t *testing.T) {
	tr := buildSample(t)
	chain := tr.Chain("sentence")
	if len(chain) != 3 {
		t.Fatalf("chain length = %d", len(chain))
	}
	// Document order: the two intro sentences, then the deep one.
	if chain[0].Value() != "hello world" || chain[2].Value() != "deep leaf" {
		t.Fatalf("chain order wrong: %v", chain)
	}
	labels := tr.Labels()
	want := []Label{"doc", "paragraph", "section", "sentence"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestDepthAndAncestor(t *testing.T) {
	tr := buildSample(t)
	deep := tr.Chain("sentence")[2]
	if Depth(deep) != 3 {
		t.Fatalf("Depth = %d", Depth(deep))
	}
	if !IsAncestor(tr.Root(), deep) {
		t.Fatal("root should be ancestor of deep leaf")
	}
	if IsAncestor(deep, tr.Root()) {
		t.Fatal("leaf is not ancestor of root")
	}
	if IsAncestor(deep, deep) {
		t.Fatal("a node is not its own proper ancestor")
	}
}

// TestIdenticalComparesIDs: Identical is Isomorphic plus equal node IDs
// at every node and an equal IDBound.
func TestIdenticalComparesIDs(t *testing.T) {
	tr := buildSample(t)
	if cp := tr.Clone(); !Identical(tr, cp) {
		t.Fatal("a clone is not identical")
	}
	// The same content built in another order numbers its nodes apart.
	a, b := NewWithRoot("doc", ""), NewWithRoot("doc", "")
	pa := a.AppendChild(a.Root(), "p", "")
	a.AppendChild(pa, "s", "one")
	a.AppendChild(a.Root(), "p", "")
	b.AppendChild(b.Root(), "p", "")
	b.InsertChild(b.Root(), 1, "p", "")
	b.AppendChild(b.Root().Child(1), "s", "one")
	if !Isomorphic(a, b) || Identical(a, b) {
		t.Fatalf("isomorphic %v, identical %v; want true, false", Isomorphic(a, b), Identical(a, b))
	}
	// Equal IDs everywhere, but an ID once used raises the bound.
	grown := tr.Clone()
	if err := grown.Delete(grown.AppendChild(grown.Root(), "x", "")); err != nil {
		t.Fatal(err)
	}
	if Identical(tr, grown) || !Isomorphic(tr, grown) {
		t.Fatalf("bounds %d and %d: identical %v", tr.IDBound(), grown.IDBound(), Identical(tr, grown))
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildSample(t)
	cp := tr.Clone()
	if !Isomorphic(tr, cp) {
		t.Fatal("clone not isomorphic")
	}
	// IDs are preserved.
	for _, n := range tr.PreOrder() {
		c := cp.Node(n.ID())
		if c == nil || c.Label() != n.Label() || c.Value() != n.Value() {
			t.Fatalf("clone lost node %v", n)
		}
	}
	// Mutating the clone leaves the original untouched.
	cp.SetValue(cp.Root(), "changed")
	if tr.Root().Value() == "changed" {
		t.Fatal("clone shares state with original")
	}
	leaf := cp.Leaves()[0]
	if err := cp.Delete(leaf); err != nil {
		t.Fatalf("Delete on clone: %v", err)
	}
	if tr.Len() != 7 {
		t.Fatal("delete on clone affected original")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

// cloneFixture has three child lists of three carved side by side in a
// clone's child array, so an append past one list's end would land on
// its neighbour's first entry.
const cloneFixture = `doc
  section "a"
    sentence "a1"
    sentence "a2"
    sentence "a3"
  section "b"
    sentence "b1"
    sentence "b2"
  section "c"
    sentence "c1"`

// TestCloneEditsStayLocal applies every insert, move and delete a
// clone of cloneFixture admits, each to a fresh clone. The edited clone
// must be valid and identical to the same edit on a parse of the
// fixture, and the source and a second clone, taken first, must stay
// identical to another parse: a clone's exact-size child lists
// reallocate on growth and share nothing with the tree they copy.
func TestCloneEditsStayLocal(t *testing.T) {
	src := MustParse(cloneFixture)
	second := src.Clone()
	edits := 0
	check := func(what string, edit func(*Tree) error) {
		t.Helper()
		c, ref := src.Clone(), MustParse(cloneFixture)
		errC, errRef := edit(c), edit(ref)
		if (errC == nil) != (errRef == nil) {
			t.Fatalf("%s: clone %v, parse %v", what, errC, errRef)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !Identical(c, ref) {
			t.Fatalf("%s: clone\n%s\nparse\n%s", what, c, ref)
		}
		if orig := MustParse(cloneFixture); !Identical(src, orig) || !Identical(second, orig) {
			t.Fatalf("%s reached the source or another clone:\n%s\n%s", what, src, second)
		}
		edits++
	}
	ids := func() []NodeID {
		var out []NodeID
		src.Walk(func(n *Node) bool { out = append(out, n.ID()); return true })
		return out
	}
	for _, p := range ids() {
		for k := 1; k <= src.Node(p).NumChildren()+1; k++ {
			check(fmt.Sprintf("insert at %d under %d", k, p), func(tr *Tree) error {
				tr.InsertChild(tr.Node(p), k, "sentence", "new")
				return nil
			})
		}
	}
	for _, n := range ids() {
		for _, p := range ids() {
			for k := 1; k <= src.Node(p).NumChildren()+1; k++ {
				check(fmt.Sprintf("move %d to %d under %d", n, k, p), func(tr *Tree) error {
					return tr.Move(tr.Node(n), tr.Node(p), k)
				})
			}
		}
		if src.Node(n).IsLeaf() {
			check(fmt.Sprintf("delete %d", n), func(tr *Tree) error { return tr.Delete(tr.Node(n)) })
		}
	}
	t.Logf("%d edits", edits)
}

// TestCloneAllocs: a clone is the Tree and three exact-size arrays (the
// node slab, the child pointers, the node table), however many nodes it
// copies.
func TestCloneAllocs(t *testing.T) {
	tr := MustParse(cloneFixture)
	if n := testing.AllocsPerRun(100, func() { tr.Clone() }); n > 4 {
		t.Errorf("%v allocations per clone of %d nodes, want 4", n, tr.Len())
	}
}

func TestIsomorphic(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	if !Isomorphic(a, b) {
		t.Fatal("identical construction should be isomorphic")
	}
	b.SetValue(b.Leaves()[0], "different")
	if Isomorphic(a, b) {
		t.Fatal("value change should break isomorphism")
	}
	if !Isomorphic(New(), New()) {
		t.Fatal("two empty trees are isomorphic")
	}
	if Isomorphic(a, New()) {
		t.Fatal("non-empty vs empty should differ")
	}
}

func TestParseRoundTrip(t *testing.T) {
	tr := buildSample(t)
	back, err := Parse(tr.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !Isomorphic(tr, back) {
		t.Fatalf("round trip broke isomorphism:\n%v\nvs\n%v", tr, back)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"odd indent":      "a\n   b",
		"jump indent":     "a\n    b",
		"two roots":       "a\nb",
		"bad value quote": "a \"unterminated",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildSample(t)
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back := New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !Isomorphic(tr, back) {
		t.Fatal("JSON round trip broke isomorphism")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestJSONErrors(t *testing.T) {
	back := New()
	if err := json.Unmarshal([]byte(`{"value":"no label"}`), back); err == nil {
		t.Fatal("expected error for missing label")
	}
	full := buildSample(t)
	if err := json.Unmarshal([]byte(`{"label":"x"}`), full); err == nil {
		t.Fatal("expected error unmarshalling into non-empty tree")
	}
}

// randomTree builds a random tree with the given rng; used by the
// property tests below.
func randomTree(rng *rand.Rand, maxNodes int) *Tree {
	tr := NewWithRoot("L3", "root")
	nodes := []*Node{tr.Root()}
	n := 1 + rng.Intn(maxNodes)
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		label := Label([]string{"L0", "L1", "L2"}[rng.Intn(3)])
		child := tr.AppendChild(parent, label, string(rune('a'+rng.Intn(26))))
		nodes = append(nodes, child)
	}
	return tr
}

func TestQuickCloneIsomorphic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 60)
		cp := tr.Clone()
		return Isomorphic(tr, cp) && cp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 40)
		back, err := Parse(tr.String())
		return err == nil && Isomorphic(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomEditsKeepValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 50)
		for i := 0; i < 30; i++ {
			nodes := tr.PreOrder()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(4) {
			case 0:
				tr.AppendChild(n, "L0", "new")
			case 1:
				if n.IsLeaf() && !n.IsRoot() {
					if err := tr.Delete(n); err != nil {
						return false
					}
				}
			case 2:
				tr.SetValue(n, "upd")
			case 3:
				target := nodes[rng.Intn(len(nodes))]
				if n.IsRoot() || target == n || IsAncestor(n, target) || target.IsLeaf() {
					continue
				}
				limit := target.NumChildren() + 1
				if n.Parent() == target {
					limit = target.NumChildren()
				}
				if limit < 1 {
					continue
				}
				if err := tr.Move(n, target, 1+rng.Intn(limit)); err != nil {
					return false
				}
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// buildAppended builds a tree whose sentences go in through AppendChildren
// when batch is set and through one AppendChild per value otherwise,
// under lim and with a live position index (one list built before the
// appends, one built lazily). A limit trip returns the partial tree.
func buildAppended(batch bool, lim Limits) (tr *Tree, err error) {
	defer CatchLimit(&err)
	tr = New()
	tr.Restrict(lim)
	defer tr.Unrestrict()
	sec := tr.AppendChild(tr.SetRoot("doc", ""), "section", "s")
	ix := tr.Positions()
	ix.Rank(tr.AppendChild(sec, "sentence", "before"))
	para := tr.AppendChild(sec, "paragraph", "")
	add := func(parent *Node, values ...string) {
		if batch {
			tr.AppendChildren(parent, "sentence", values)
			return
		}
		for _, v := range values {
			tr.AppendChild(parent, "sentence", v)
		}
	}
	add(para, "one", "two", "three")
	add(sec, "four", "five")
	add(para)
	add(para, "six")
	add(tr.AppendChild(para, "item", ""), "seven", "eight")
	return tr, nil
}

// TestAppendChildrenMatchesAppendChild: a batch append builds the tree an
// AppendChild loop builds (IDs, order, parents, a valid tree and position
// index), and a parse guard trips at the same node with the same error.
func TestAppendChildrenMatchesAppendChild(t *testing.T) {
	batch, err := buildAppended(true, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := buildAppended(false, Limits{})
	if !Identical(batch, loop) || batch.String() != loop.String() {
		t.Fatalf("batch tree\n%s\nloop tree\n%s", batch, loop)
	}
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := batch.Positions()
	for _, n := range batch.PreOrder() {
		if p := loop.Node(n.ID()).Parent(); (p == nil) != n.IsRoot() || p != nil && p.ID() != n.Parent().ID() {
			t.Fatalf("%v: parent differs from the loop's", n)
		}
		if got, want := ix.Rank(n), n.ChildIndex(); got != want {
			t.Fatalf("Rank(%v) = %d, ChildIndex = %d", n, got, want)
		}
	}
	if err := ix.validate(); err != nil {
		t.Fatal(err)
	}

	limits := []Limits{{MaxDepth: 3}, {MaxDepth: 4}}
	for n := 1; n <= batch.Len(); n++ {
		limits = append(limits, Limits{MaxNodes: n})
	}
	for _, lim := range limits {
		b, berr := buildAppended(true, lim)
		l, lerr := buildAppended(false, lim)
		if lim.MaxNodes < batch.Len() && berr == nil {
			t.Fatalf("%+v: batch append built past the limit", lim)
		}
		if fmt.Sprint(berr) != fmt.Sprint(lerr) || b.Len() != l.Len() || b.IDBound() != l.IDBound() {
			t.Fatalf("%+v: batch stopped at %d nodes (bound %d) with %v; loop at %d (bound %d) with %v",
				lim, b.Len(), b.IDBound(), berr, l.Len(), l.IDBound(), lerr)
		}
	}
}

// Package tree implements the rooted, ordered, labeled, valued trees on
// which the change-detection algorithms of Chawathe et al. (SIGMOD 1996)
// operate.
//
// Every node has a label (drawn from an arbitrary fixed set), an optional
// string value, and a tree-unique identifier. Identifiers are assigned by
// the owning Tree and never reused, mirroring the paper's assumption that
// "identifiers may be generated by our algorithms when they are not
// provided in the data itself" (§3.1). Children are ordered; the i-th child
// positions used throughout the paper are 1-based in the public API.
package tree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a single Tree. IDs are positive and
// unique per tree; the zero value is never a valid ID.
type NodeID int64

// Label is a node label, e.g. "sentence" or "paragraph" in the document
// domain of the paper's LaDiff application.
type Label string

// Node is a single node of an ordered tree. Nodes are created through
// Tree methods and always belong to exactly one Tree.
type Node struct {
	id       NodeID
	label    Label
	value    string
	parent   *Node
	children []*Node
}

// ID returns the node's tree-unique identifier.
func (n *Node) ID() NodeID { return n.id }

// Label returns the node's label.
func (n *Node) Label() Label { return n.label }

// Value returns the node's value. Interior nodes typically have an empty
// value in the label-value model of the paper (§3.1).
func (n *Node) Value() string { return n.value }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children in order. The returned slice is the
// node's internal slice; callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// NumChildren returns the number of children of n.
func (n *Node) NumChildren() int { return len(n.children) }

// Child returns the 1-based k-th child of n.
// It panics if k is out of range; use NumChildren to guard.
func (n *Node) Child(k int) *Node {
	if k < 1 || k > len(n.children) {
		panic(fmt.Sprintf("tree: child index %d out of range [1,%d]", k, len(n.children)))
	}
	return n.children[k-1]
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// IsRoot reports whether n has no parent.
func (n *Node) IsRoot() bool { return n.parent == nil }

// ChildIndex returns the 1-based position of n among its parent's
// children, or 0 if n is a root.
func (n *Node) ChildIndex() int {
	if n.parent == nil {
		return 0
	}
	for i, c := range n.parent.children {
		if c == n {
			return i + 1
		}
	}
	// Unreachable for nodes maintained by Tree operations.
	panic("tree: node not found among its parent's children")
}

// LeftSiblings returns the siblings strictly to the left of n, in order.
func (n *Node) LeftSiblings() []*Node {
	if n.parent == nil {
		return nil
	}
	idx := n.ChildIndex()
	return n.parent.children[:idx-1]
}

// String renders the node as "label(id)=value" for diagnostics.
func (n *Node) String() string {
	if n.value == "" {
		return fmt.Sprintf("%s(%d)", n.label, n.id)
	}
	return fmt.Sprintf("%s(%d)=%q", n.label, n.id, n.value)
}

// Tree is a rooted ordered tree. The zero value is an empty tree with no
// root; use New or NewWithRoot to construct trees.
type Tree struct {
	root *Node
	// nodes is the node table, indexed by ID: the live node with that
	// ID, or nil for a hole (slot 0, or a deleted node's ID). Its length
	// is the allocator's next ID, IDBound.
	nodes []*Node
	// live counts the non-nil entries of nodes.
	live int
	// index caches the structural Index; nil when stale. See Index().
	index *Index
	// pos is the maintained order-statistic position index; nil until
	// Positions() is first called. Unlike index it is updated, not
	// invalidated, by structural mutations. See positions.go.
	pos *PosIndex
	// fp caches the Merkle fingerprint index; nil when stale. Dropped by
	// every structural mutation (alongside index) and by SetValue, which
	// leaves the structural index alone. See fingerprint.go.
	fp *FPIndex
	// guard, when non-nil, enforces parse-time node/depth limits on node
	// creation. Installed by Restrict during parsing only; see limits.go.
	guard *parseGuard
}

// New returns an empty tree. Use SetRoot or NewWithRoot to add a root.
func New() *Tree {
	return &Tree{nodes: make([]*Node, 1)}
}

// NewWithRoot returns a tree whose root has the given label and value.
func NewWithRoot(label Label, value string) *Tree {
	t := New()
	t.SetRoot(label, value)
	return t
}

// Root returns the root node, or nil if the tree is empty.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return t.live }

// IDBound returns the ID the tree allocates next. Every node's ID lies
// in [1, IDBound), so a table indexed by ID and sized IDBound covers
// the tree. A fresh tree numbers its nodes 1..Len; deletions leave holes
// below the bound, since IDs are never reused.
func (t *Tree) IDBound() NodeID { return NodeID(max(len(t.nodes), 1)) }

// Node returns the node with the given ID, or nil if no such node exists.
func (t *Tree) Node(id NodeID) *Node {
	if uint64(id) < uint64(len(t.nodes)) {
		return t.nodes[id]
	}
	return nil
}

// Contains reports whether a node with the given ID exists in the tree.
func (t *Tree) Contains(id NodeID) bool { return t.Node(id) != nil }

// SetRoot creates a root node for an empty tree and returns it.
func (t *Tree) SetRoot(label Label, value string) *Node {
	if t.root != nil {
		panic("tree: SetRoot on non-empty tree")
	}
	t.ensureInit()
	t.invalidateIndex()
	var depth int
	if t.guard != nil {
		depth = t.guard.admit(nil)
	}
	n := t.newNode(label, value)
	if t.guard != nil {
		t.guard.note(n, depth)
	}
	t.root = n
	return n
}

func (t *Tree) ensureInit() {
	if len(t.nodes) == 0 {
		t.nodes = make([]*Node, 1)
	}
}

func (t *Tree) newNode(label Label, value string) *Node {
	n := &Node{id: NodeID(len(t.nodes)), label: label, value: value}
	t.nodes = append(t.nodes, n)
	t.live++
	return n
}

// AppendChild creates a new node with the given label and value and
// appends it as the last child of parent. It returns the new node.
func (t *Tree) AppendChild(parent *Node, label Label, value string) *Node {
	return t.InsertChild(parent, len(parent.children)+1, label, value)
}

// AppendChildren calls AppendChild for each value in turn, with the
// given label, after growing parent's child list and the node table once
// for the whole batch. Parsers add a paragraph's sentences with it.
func (t *Tree) AppendChildren(parent *Node, label Label, values []string) {
	t.mustOwn(parent)
	parent.children = grow(parent.children, len(values))
	t.nodes = grow(t.nodes, len(values))
	for _, v := range values {
		t.AppendChild(parent, label, v)
	}
}

// grow returns s with room for n more nodes, reallocating at most once:
// to len(s)+n or twice its capacity, whichever is more. It is
// slices.Grow with one allocation also under the race detector, where
// slices.Grow makes two.
func grow(s []*Node, n int) []*Node {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]*Node, len(s), max(len(s)+n, 2*cap(s)))
	copy(g, s)
	return g
}

// InsertChild creates a new node and inserts it as the 1-based k-th child
// of parent, shifting later children right. It returns the new node.
// It panics if parent belongs to a different tree or k is out of range
// [1, NumChildren+1]; the edit layer validates before calling.
func (t *Tree) InsertChild(parent *Node, k int, label Label, value string) *Node {
	t.mustOwn(parent)
	if k < 1 || k > len(parent.children)+1 {
		panic(fmt.Sprintf("tree: insert position %d out of range [1,%d]", k, len(parent.children)+1))
	}
	t.ensureInit()
	t.invalidateIndex()
	var depth int
	if t.guard != nil {
		depth = t.guard.admit(parent)
	}
	n := t.newNode(label, value)
	if t.guard != nil {
		t.guard.note(n, depth)
	}
	n.parent = parent
	parent.children = append(parent.children, nil)
	copy(parent.children[k:], parent.children[k-1:])
	parent.children[k-1] = n
	if t.pos != nil {
		t.pos.onAttach(parent, n, k)
	}
	return n
}

// InsertChildID is InsertChild with a caller-chosen identifier. Edit
// scripts record the identifier assigned to each inserted node, so that
// replaying a script on a fresh copy of the old tree recreates nodes under
// the identifiers later operations refer to. The ID must be positive and
// unused. The node table grows to hold it, so callers bound IDs that
// come from outside the program (the edit layer does).
func (t *Tree) InsertChildID(parent *Node, k int, id NodeID, label Label, value string) (*Node, error) {
	t.mustOwn(parent)
	if id <= 0 {
		return nil, fmt.Errorf("tree: insert with non-positive ID %d", id)
	}
	if t.Node(id) != nil {
		return nil, fmt.Errorf("tree: insert with ID %d already in use", id)
	}
	if k < 1 || k > len(parent.children)+1 {
		return nil, fmt.Errorf("tree: insert position %d out of range [1,%d]", k, len(parent.children)+1)
	}
	t.ensureInit()
	t.invalidateIndex()
	n := &Node{id: id, label: label, value: value, parent: parent}
	if gap := int(id) + 1 - len(t.nodes); gap > 0 {
		t.nodes = append(t.nodes, make([]*Node, gap)...)
	}
	t.nodes[id] = n
	t.live++
	parent.children = append(parent.children, nil)
	copy(parent.children[k:], parent.children[k-1:])
	parent.children[k-1] = n
	if t.pos != nil {
		t.pos.onAttach(parent, n, k)
	}
	return n, nil
}

// Delete removes the leaf node n from the tree. Following the paper's DEL
// operation (§3.2), only leaves may be deleted; interior nodes must first
// have their descendants moved or deleted.
func (t *Tree) Delete(n *Node) error {
	t.mustOwn(n)
	if !n.IsLeaf() {
		return fmt.Errorf("tree: delete non-leaf node %v", n)
	}
	t.invalidateIndex()
	if n == t.root {
		t.root = nil
	} else {
		t.detach(n)
	}
	t.nodes[n.id] = nil
	t.live--
	n.parent = nil
	return nil
}

// Move detaches the subtree rooted at n and re-inserts it as the 1-based
// k-th child of newParent, implementing the paper's MOV operation.
// Moving a node under its own descendant (or itself) is rejected, as is
// moving the root.
func (t *Tree) Move(n, newParent *Node, k int) error {
	t.mustOwn(n)
	t.mustOwn(newParent)
	if n == t.root {
		return errors.New("tree: cannot move the root")
	}
	for a := newParent; a != nil; a = a.parent {
		if a == n {
			return fmt.Errorf("tree: move of %v under its own subtree", n)
		}
	}
	// The position is interpreted against the child list with n already
	// detached when n is currently a child of newParent; detaching first
	// gives MOV(x, p(x), k) the paper's intra-parent reordering meaning.
	// It is checked against that range before anything is detached.
	limit := len(newParent.children) + 1
	if n.parent == newParent {
		limit--
	}
	if k < 1 || k > limit {
		return fmt.Errorf("tree: move position %d out of range [1,%d]", k, limit)
	}
	t.invalidateIndex()
	t.detach(n)
	newParent.children = append(newParent.children, nil)
	copy(newParent.children[k:], newParent.children[k-1:])
	newParent.children[k-1] = n
	n.parent = newParent
	if t.pos != nil {
		t.pos.onAttach(newParent, n, k)
	}
	return nil
}

// SetValue updates the value of node n, implementing the paper's UPD
// operation. It leaves the structural Index alone (the index holds no
// values) but invalidates the fingerprint cache, which does hash them.
func (t *Tree) SetValue(n *Node, value string) {
	t.mustOwn(n)
	t.invalidateFingerprints()
	n.value = value
}

// WrapRoot inserts a new node above the current root: the new node becomes
// the root and the old root its only child. The paper's insert phase uses
// this to guarantee matched roots (§4.1). It returns the new root.
func (t *Tree) WrapRoot(label Label, value string) *Node {
	t.ensureInit()
	t.invalidateIndex()
	n := t.newNode(label, value)
	if t.root != nil {
		t.root.parent = n
		n.children = []*Node{t.root}
		if t.pos != nil {
			t.pos.onAttach(n, t.root, 1)
		}
	}
	t.root = n
	return n
}

func (t *Tree) detach(n *Node) {
	p := n.parent
	if p == nil {
		return
	}
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i], p.children[i+1:]...)
			n.parent = nil
			if t.pos != nil {
				t.pos.onDetach(p, n)
			}
			return
		}
	}
	panic("tree: detach of node not found among its parent's children")
}

func (t *Tree) mustOwn(n *Node) {
	if n == nil {
		panic("tree: nil node")
	}
	if t.Node(n.id) != n {
		panic(fmt.Sprintf("tree: node %v does not belong to this tree", n))
	}
}

// Walk visits every node of the tree in pre-order (parents before
// children, siblings left to right), calling fn for each. If fn returns
// false the walk stops early.
func (t *Tree) Walk(fn func(*Node) bool) {
	var rec func(*Node) bool
	rec = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	if t.root != nil {
		rec(t.root)
	}
}

// PreOrder returns all nodes in pre-order.
func (t *Tree) PreOrder() []*Node {
	out := make([]*Node, 0, t.live)
	t.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// PostOrder returns all nodes in post-order (children before parents,
// siblings left to right), the order used by the paper's delete phase.
func (t *Tree) PostOrder() []*Node {
	out := make([]*Node, 0, t.live)
	var rec func(*Node)
	rec = func(n *Node) {
		for _, c := range n.children {
			rec(c)
		}
		out = append(out, n)
	}
	if t.root != nil {
		rec(t.root)
	}
	return out
}

// BreadthFirst returns all nodes in breadth-first order (level by level,
// left to right within a level), the order used by Algorithm EditScript's
// combined update/align/insert/move scan (§4.3).
func (t *Tree) BreadthFirst() []*Node {
	if t.root == nil {
		return nil
	}
	// The result is its own queue: out[i]'s children go on its end, and
	// it holds every node once filled, so it never grows past its size.
	out := make([]*Node, 1, t.live)
	out[0] = t.root
	for i := 0; i < len(out); i++ {
		out = append(out, out[i].children...)
	}
	return out
}

// Leaves returns the leaf nodes in left-to-right order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// NumLeaves returns the number of leaf descendants of n, written |x| in
// the paper (§5.1). A leaf contains itself, so NumLeaves(leaf) == 1.
func NumLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.children {
		total += NumLeaves(c)
	}
	return total
}

// LeavesUnder returns the leaf descendants of n in left-to-right order.
// A leaf contains itself.
func LeavesUnder(n *Node) []*Node {
	if n.IsLeaf() {
		return []*Node{n}
	}
	var out []*Node
	var rec func(*Node)
	rec = func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
			return
		}
		for _, c := range m.children {
			rec(c)
		}
	}
	rec(n)
	return out
}

// Chain returns the nodes with the given label in left-to-right in-order
// (the chain_T(l) of Algorithm FastMatch, §5.3). For ordered trees the
// paper's in-order with siblings left-to-right coincides with pre-order on
// label-homogeneous levels; we use pre-order, which visits nodes of equal
// label in document order.
func (t *Tree) Chain(label Label) []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.label == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Labels returns the set of labels appearing in the tree, sorted.
func (t *Tree) Labels() []Label {
	seen := make(map[Label]bool)
	t.Walk(func(n *Node) bool { seen[n.label] = true; return true })
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depth returns the number of edges on the path from the root to n.
func Depth(n *Node) int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// IsAncestor reports whether a is a proper ancestor of n.
func IsAncestor(a, n *Node) bool {
	for p := n.parent; p != nil; p = p.parent {
		if p == a {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the tree. The copy preserves node IDs, so
// Clone().Node(id) corresponds to t.Node(id) for every id. It carries
// none of t's cached tables.
//
// Besides the Tree itself, the copy takes three allocations at exact
// size: one slab of nodes, one array of child pointers from which every
// child list is carved with len == cap (every node but the root is one
// list's entry, so the array holds Len-1), and the node table. A later
// insert into a list therefore reallocates that list and never writes
// into a neighbour's.
func (t *Tree) Clone() *Tree {
	out := &Tree{nodes: make([]*Node, len(t.nodes)), live: t.live}
	if t.root == nil {
		return out
	}
	slab := make([]Node, t.live)
	kids := make([]*Node, t.live-1)
	var rec func(src *Node, parent *Node) *Node
	rec = func(src *Node, parent *Node) *Node {
		n := &slab[0]
		slab = slab[1:]
		*n = Node{id: src.id, label: src.label, value: src.value, parent: parent}
		out.nodes[n.id] = n
		if k := len(src.children); k > 0 {
			n.children = kids[:k:k]
			kids = kids[k:]
			for i, c := range src.children {
				n.children[i] = rec(c, n)
			}
		}
		return n
	}
	out.root = rec(t.root, nil)
	return out
}

// Isomorphic reports whether t1 and t2 are identical except for node
// identifiers (§3.1): same shape, labels, and values.
func Isomorphic(t1, t2 *Tree) bool { return same(t1, t2, false) }

// Identical reports whether t1 and t2 are isomorphic with the same ID at
// every node and the same IDBound, so that any ID-addressed edit script
// applies to both alike.
func Identical(t1, t2 *Tree) bool { return t1.IDBound() == t2.IDBound() && same(t1, t2, true) }

// same is Isomorphic, also comparing node IDs when ids is set.
func same(t1, t2 *Tree, ids bool) bool {
	var eq func(a, b *Node) bool
	eq = func(a, b *Node) bool {
		if a.label != b.label || a.value != b.value || len(a.children) != len(b.children) || ids && a.id != b.id {
			return false
		}
		for i := range a.children {
			if !eq(a.children[i], b.children[i]) {
				return false
			}
		}
		return true
	}
	if t1.root == nil || t2.root == nil {
		return t1.root == nil && t2.root == nil
	}
	return eq(t1.root, t2.root)
}

// Validate checks the tree's internal invariants: the node index matches
// the reachable nodes, parent/child links are consistent, and IDs are
// below IDBound. It returns nil if the tree is well formed. It is used by
// tests and by failure-injection checks after applying edit scripts.
func (t *Tree) Validate() error {
	reached := make([]*Node, len(t.nodes))
	count := 0
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n.id <= 0 || int64(n.id) >= int64(len(t.nodes)) {
			return fmt.Errorf("tree: node %v has ID outside (0,%d)", n, len(t.nodes))
		}
		if prev := reached[n.id]; prev != nil {
			return fmt.Errorf("tree: duplicate ID %d (%v and %v)", n.id, prev, n)
		}
		reached[n.id] = n
		count++
		for _, c := range n.children {
			if c.parent != n {
				return fmt.Errorf("tree: child %v of %v has wrong parent link", c, n)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if t.root != nil {
		if t.root.parent != nil {
			return errors.New("tree: root has a parent")
		}
		if err := rec(t.root); err != nil {
			return err
		}
	}
	if count != t.live {
		return fmt.Errorf("tree: index has %d nodes, %d reachable from root", t.live, count)
	}
	for id, n := range t.nodes {
		if reached[id] != n {
			return fmt.Errorf("tree: indexed node %v not reachable from root", n)
		}
	}
	return nil
}

// String renders the tree in the indented text format accepted by Parse.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(string(n.label))
		b.WriteString("(")
		b.WriteString(fmt.Sprint(n.id))
		b.WriteString(")")
		if n.value != "" {
			fmt.Fprintf(&b, " %q", n.value)
		}
		b.WriteByte('\n')
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	if t.root != nil {
		rec(t.root, 0)
	}
	return b.String()
}

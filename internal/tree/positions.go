package tree

import "fmt"

// PosIndex is an order-statistic index over the tree's child lists: it
// answers Rank (the 1-based position of a node among its parent's
// children) in O(log fanout) where the plain Node.ChildIndex scan is
// O(fanout). Unlike the Euler Index — a read-only snapshot invalidated
// by any structural mutation — a PosIndex is *maintained*: the same
// mutation hooks that invalidate the Euler index also notify the
// position index, which updates itself incrementally through
// InsertChild, InsertChildID, Move, Delete and WrapRoot. It exists for
// Algorithm EditScript's FindPos, whose working tree mutates after
// every emitted operation, making snapshot indexes useless there.
//
// Internally each queried parent gets an implicit treap (a randomized
// balanced tree keyed by child position) with parent pointers, so rank
// queries climb from the node and positional inserts/deletes descend
// from the root, both in O(log fanout) expected. Treaps are built
// lazily: a parent whose child list is never ranked costs nothing
// beyond the O(1) hook checks.
//
// A PosIndex is owned by its tree and shares its lifetime; it is not
// safe for concurrent use with mutations, matching the tree itself.
type PosIndex struct {
	t *Tree
	// lists holds the per-parent treaps, indexed by the parent's node
	// ID; entries appear lazily on the first Rank under that parent.
	lists []*childTreap
	// nodes holds each child's treap node, indexed by the child's node
	// ID, for every child covered by a built list. Both tables keep the
	// tree's IDBound as their length, growing in onAttach.
	nodes []*posNode
	// rng is a deterministic xorshift state for treap priorities.
	// Determinism keeps benchmark runs reproducible; correctness never
	// depends on the priorities.
	rng uint32
	// steps counts the elementary index operations executed (descend,
	// climb and rotation steps). Callers expose it as "effective" work
	// against the logical O(fanout) scan cost the index replaces.
	steps int64
}

// childTreap is the root holder for one parent's child list.
type childTreap struct{ root *posNode }

// posNode is one treap node; the in-order sequence of a parent's treap
// is exactly its child list.
type posNode struct {
	up, l, r *posNode
	size     int32
	prio     uint32
	id       NodeID
}

func size(n *posNode) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

// Positions returns the tree's maintained position index, creating it
// on first use. Subsequent structural mutations keep it current.
func (t *Tree) Positions() *PosIndex {
	if t.pos == nil {
		t.pos = &PosIndex{
			t:     t,
			lists: make([]*childTreap, t.IDBound()),
			nodes: make([]*posNode, t.IDBound()),
			rng:   0x9E3779B9,
		}
	}
	return t.pos
}

// Steps returns the cumulative number of elementary index operations
// executed (treap descend/climb/rotation steps), the executed-work
// counterpart of the logical sibling-scan cost.
func (ix *PosIndex) Steps() int64 { return ix.steps }

// Rank returns the 1-based position of n among its parent's children,
// or 0 for a root — the same contract as Node.ChildIndex, in
// O(log fanout) after the parent's list is first built.
func (ix *PosIndex) Rank(n *Node) int {
	if n.parent == nil {
		return 0
	}
	tn := ix.nodes[n.id]
	if tn == nil {
		ix.build(n.parent)
		tn = ix.nodes[n.id]
		if tn == nil {
			// Unreachable for nodes maintained by Tree operations.
			panic("tree: PosIndex.Rank of node missing from its parent's list")
		}
	}
	r := int(size(tn.l)) + 1
	for cur := tn; cur.up != nil; cur = cur.up {
		ix.steps++
		if cur.up.r == cur {
			r += int(size(cur.up.l)) + 1
		}
	}
	return r
}

// build constructs the treap for parent's current child list in O(n):
// a Cartesian-tree construction over the rightmost spine (each node is
// pushed and popped at most once), followed by one size-setting pass.
func (ix *PosIndex) build(parent *Node) {
	cl := &childTreap{}
	ix.lists[parent.id] = cl
	var spine []*posNode // current rightmost path, root first
	for _, c := range parent.children {
		ix.steps++
		nn := &posNode{size: 1, prio: ix.nextPrio(), id: c.id}
		ix.nodes[c.id] = nn
		var last *posNode
		for len(spine) > 0 && spine[len(spine)-1].prio < nn.prio {
			ix.steps++
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		if last != nil {
			nn.l = last
			last.up = nn
		}
		if len(spine) > 0 {
			p := spine[len(spine)-1]
			p.r = nn
			nn.up = p
		} else {
			cl.root = nn
		}
		spine = append(spine, nn)
	}
	var setSize func(n *posNode) int32
	setSize = func(n *posNode) int32 {
		if n == nil {
			return 0
		}
		ix.steps++
		n.size = 1 + setSize(n.l) + setSize(n.r)
		return n.size
	}
	setSize(cl.root)
}

// onAttach is the mutation hook: child was spliced into parent's list
// at 1-based position k. Every node a tree gains passes through here, as
// the child or (WrapRoot) the parent, so the tables grow here.
func (ix *PosIndex) onAttach(parent, child *Node, k int) {
	if gap := int(ix.t.IDBound()) - len(ix.nodes); gap > 0 {
		ix.nodes = append(ix.nodes, make([]*posNode, gap)...)
		ix.lists = append(ix.lists, make([]*childTreap, gap)...)
	}
	cl := ix.lists[parent.id]
	if cl == nil {
		return // list not built; it will be built lazily if ever ranked
	}
	ix.insertAt(cl, k, child.id)
}

// onDetach is the mutation hook: child was removed from parent's list.
func (ix *PosIndex) onDetach(parent, child *Node) {
	cl := ix.lists[parent.id]
	if cl == nil {
		return
	}
	tn := ix.nodes[child.id]
	if tn == nil {
		panic("tree: PosIndex.onDetach of node missing from its parent's list")
	}
	ix.remove(cl, tn)
}

// nextPrio advances the xorshift32 state.
func (ix *PosIndex) nextPrio() uint32 {
	x := ix.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	ix.rng = x
	return x
}

// insertAt makes id the k-th (1-based) element of cl's sequence.
func (ix *PosIndex) insertAt(cl *childTreap, k int, id NodeID) {
	nn := &posNode{size: 1, prio: ix.nextPrio(), id: id}
	ix.nodes[id] = nn
	if cl.root == nil {
		cl.root = nn
		return
	}
	// Descend to the leaf slot that puts k-1 existing elements before nn.
	before := int32(k - 1)
	cur := cl.root
	for {
		ix.steps++
		if before <= size(cur.l) {
			if cur.l == nil {
				cur.l = nn
				nn.up = cur
				break
			}
			cur = cur.l
		} else {
			before -= size(cur.l) + 1
			if cur.r == nil {
				cur.r = nn
				nn.up = cur
				break
			}
			cur = cur.r
		}
	}
	for q := nn.up; q != nil; q = q.up {
		q.size++
	}
	// Restore the max-heap priority invariant.
	for nn.up != nil && nn.prio > nn.up.prio {
		ix.rotateUp(cl, nn)
	}
}

// remove deletes tn from cl by rotating it down to a leaf.
func (ix *PosIndex) remove(cl *childTreap, tn *posNode) {
	for tn.l != nil || tn.r != nil {
		c := tn.l
		if c == nil || (tn.r != nil && tn.r.prio > c.prio) {
			c = tn.r
		}
		ix.rotateUp(cl, c)
	}
	if p := tn.up; p == nil {
		cl.root = nil
	} else {
		if p.l == tn {
			p.l = nil
		} else {
			p.r = nil
		}
		for q := p; q != nil; q = q.up {
			ix.steps++
			q.size--
		}
	}
	tn.up = nil
	ix.nodes[tn.id] = nil
}

// rotateUp lifts x over its parent, preserving the in-order sequence
// and the subtree sizes.
func (ix *PosIndex) rotateUp(cl *childTreap, x *posNode) {
	ix.steps++
	p := x.up
	g := p.up
	if p.l == x {
		p.l = x.r
		if x.r != nil {
			x.r.up = p
		}
		x.r = p
	} else {
		p.r = x.l
		if x.l != nil {
			x.l.up = p
		}
		x.l = p
	}
	p.up = x
	x.up = g
	switch {
	case g == nil:
		cl.root = x
	case g.l == p:
		g.l = x
	default:
		g.r = x
	}
	p.size = 1 + size(p.l) + size(p.r)
	x.size = 1 + size(x.l) + size(x.r)
}

// validate checks every built list against the tree's actual child
// slices — a test hook.
func (ix *PosIndex) validate() error {
	for pid, cl := range ix.lists {
		parent := ix.t.Node(NodeID(pid))
		if cl == nil || parent == nil {
			continue // parent deleted; its list must be empty
		}
		var seq []NodeID
		var rec func(n *posNode)
		rec = func(n *posNode) {
			if n == nil {
				return
			}
			rec(n.l)
			seq = append(seq, n.id)
			rec(n.r)
		}
		rec(cl.root)
		if len(seq) != len(parent.children) {
			return fmt.Errorf("tree: PosIndex list for %v has %d entries, child list has %d", parent, len(seq), len(parent.children))
		}
		for i, c := range parent.children {
			if seq[i] != c.id {
				return fmt.Errorf("tree: PosIndex list for %v diverges at %d: %d vs %d", parent, i, seq[i], c.id)
			}
		}
	}
	return nil
}

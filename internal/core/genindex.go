package core

import (
	"ladiff/internal/tree"
)

// genIndex is the edit-script generation index: the data structures that
// let FindPos answer in O(log fanout) what the paper's Figure 9 answers
// with two linear sibling scans. It has two halves, one per tree:
//
//   - New-tree side (static): childPos records each node's 1-based child
//     index, fixed for the whole run because T2 never mutates; bits holds
//     a lazily built per-parent Fenwick tree over the "in order" marks,
//     whose predecessor query (prevSet) is the per-parent
//     rightmost-in-order cache — it locates the anchor sibling v of
//     Figure 9 step 3 without walking x's left siblings.
//   - Working-tree side (mutating): pos is the tree.PosIndex, an
//     order-statistic index maintained incrementally as INS/MOV/DEL
//     operations reshape the working tree, replacing the scan that
//     counts u's child index.
//
// The index changes how positions are computed, never which positions:
// emitted scripts are byte-identical to the scan path, and the logical
// WorkStats counters still report the paper's scan cost (see
// findPosIndexed). steps accumulates the elementary Fenwick operations
// executed; together with pos.Steps() it becomes EffectivePosScans.
type genIndex struct {
	// childPos holds every non-root node of the new tree's 1-based child
	// index, indexed by node ID. Built once after root wrapping; the new
	// tree is read-only for the rest of the run, so its IDBound sizes
	// this table and the next two.
	childPos []int32
	// bits holds the per-parent in-order Fenwick trees, indexed by the
	// parent's new-tree node ID. An entry appears on the first FindPos
	// under that parent (always after AlignChildren has reset the
	// parent's marks) and is dropped if the marks are ever reset again.
	bits []*inOrderBits
	// inOrder aliases the generator's inOrder2 table: the source of truth
	// for the marks, from which a Fenwick tree is initialized when it is
	// first built.
	inOrder []bool
	// pos is the working tree's maintained order-statistic index.
	pos *tree.PosIndex
	// steps counts elementary Fenwick operations (loop iterations in
	// set/prefix/select), the executed-work counterpart of PosScans.
	steps int64
}

func newGenIndex(newTree, work *tree.Tree, inOrder2 []bool) *genIndex {
	gi := &genIndex{
		childPos: make([]int32, newTree.IDBound()),
		bits:     make([]*inOrderBits, newTree.IDBound()),
		inOrder:  inOrder2,
		pos:      work.Positions(),
	}
	newTree.Walk(func(n *tree.Node) bool {
		for i, c := range n.Children() {
			gi.childPos[c.ID()] = int32(i + 1)
		}
		return true
	})
	return gi
}

// bitsFor returns the in-order Fenwick tree for the children of y
// (a new-tree parent), building it from the current marks on first use.
// The build is the classic linear Fenwick construction, O(fanout)
// rather than one O(log) set per marked child.
func (gi *genIndex) bitsFor(y *tree.Node) *inOrderBits {
	b := gi.bits[y.ID()]
	if b == nil {
		b = newInOrderBits(int32(y.NumChildren()), &gi.steps)
		for i, c := range y.Children() {
			if gi.inOrder[c.ID()] {
				b.has[i+1] = true
				b.bit[i+1] = 1
			}
		}
		for i := int32(1); i <= b.n; i++ {
			gi.steps++
			if j := i + i&-i; j <= b.n {
				b.bit[j] += b.bit[i]
			}
		}
		gi.bits[y.ID()] = b
	}
	return b
}

// onMark records that the new-tree node x was marked "in order",
// keeping x's parent's Fenwick tree (if built) in sync with inOrder2.
func (gi *genIndex) onMark(x *tree.Node) {
	p := x.Parent()
	if p == nil {
		return
	}
	if b := gi.bits[p.ID()]; b != nil {
		b.set(gi.childPos[x.ID()])
	}
}

// onReset drops the Fenwick tree for the children of the new-tree
// parent with the given ID; AlignChildren calls it when it marks the
// whole sibling group "out of order". The tree is rebuilt lazily from
// the marks if FindPos ever queries the group again.
func (gi *genIndex) onReset(parentID tree.NodeID) {
	gi.bits[parentID] = nil
}

// inOrderBits is a Fenwick (binary indexed) tree over the in-order
// marks of one parent's child positions 1..n. set is idempotent;
// prevSet(i) returns the rightmost set position ≤ i, or 0 — the
// predecessor query FindPos uses to locate the rightmost in-order left
// sibling in O(log n).
type inOrderBits struct {
	n     int32
	log   int32   // largest power of two ≤ n (0 when n == 0)
	bit   []int32 // Fenwick prefix-count array, 1-based
	has   []bool  // membership, 1-based
	steps *int64
}

func newInOrderBits(n int32, steps *int64) *inOrderBits {
	b := &inOrderBits{n: n, bit: make([]int32, n+1), has: make([]bool, n+1), steps: steps}
	for p := int32(1); p <= n; p <<= 1 {
		b.log = p
	}
	return b
}

// set marks position i. Re-marking an already set position is a no-op
// (a node can be marked both during its parent's alignment and at its
// own breadth-first visit).
func (b *inOrderBits) set(i int32) {
	if i < 1 || i > b.n || b.has[i] {
		return
	}
	b.has[i] = true
	for ; i <= b.n; i += i & -i {
		*b.steps++
		b.bit[i]++
	}
}

// prefix returns the number of set positions ≤ i.
func (b *inOrderBits) prefix(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		*b.steps++
		s += b.bit[i]
	}
	return s
}

// prevSet returns the rightmost set position ≤ i, or 0 if there is
// none: a prefix count followed by a binary-lifting select of the k-th
// set position, both O(log n).
func (b *inOrderBits) prevSet(i int32) int32 {
	if i > b.n {
		i = b.n
	}
	if i <= 0 {
		return 0
	}
	k := b.prefix(i)
	if k == 0 {
		return 0
	}
	var pos int32
	for p := b.log; p > 0; p >>= 1 {
		*b.steps++
		if pos+p <= b.n && b.bit[pos+p] < k {
			pos += p
			k -= b.bit[pos]
		}
	}
	return pos + 1
}

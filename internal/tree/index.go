package tree

// Index is a read-only structural snapshot of a Tree: an Euler-tour
// (entry/exit) numbering of the nodes, a flat document-order leaf
// sequence with per-node spans, and per-label chains. It turns the
// ancestor queries and leaf enumerations that dominate the matching
// phase into O(1) interval tests and zero-copy subslices.
//
// An Index is built lazily by (*Tree).Index and cached on the tree; any
// structural mutation (insert, delete, move, wrap) invalidates the cache,
// so a stale Index can never be observed through the owning tree. Value
// updates (SetValue) do not invalidate: the index holds no values.
//
// The snapshot itself is immutable after construction and therefore safe
// for concurrent readers, provided the tree is not mutated concurrently.
type Index struct {
	// spans is indexed by node ID. An ID the index does not cover reads
	// the zero span, whose out is 0; every covered node has out ≥ 1.
	spans  []nodeSpan
	leaves []*Node
	chains map[Label][]*Node
}

// nodeSpan packs the Euler interval and the node's range in the flat
// leaf sequence. For every proper descendant d of n:
//
//	n.in < d.in && d.out < n.out
//
// and the leaves under n are exactly leaves[leafLo:leafHi].
type nodeSpan struct {
	in, out        int32
	leafLo, leafHi int32
}

// Index returns the tree's structural index, building it on first use.
// The returned Index reflects the tree as of the call; it is invalidated
// (and rebuilt on the next call) by any structural mutation.
func (t *Tree) Index() *Index {
	if t.index == nil {
		t.index = buildIndex(t)
	}
	return t.index
}

func buildIndex(t *Tree) *Index {
	// A first pass counts the leaves and each label's nodes, so the leaf
	// sequence and the chains are carved from one backing array at their
	// exact sizes. Each has len == cap once filled: none grows by append,
	// and appending to one cannot write into another.
	counts := make(map[Label]int)
	leaves := 0
	for _, n := range t.nodes {
		if n != nil {
			counts[n.label]++
			if n.IsLeaf() {
				leaves++
			}
		}
	}
	back := make([]*Node, leaves+t.live)
	idx := &Index{
		spans:  make([]nodeSpan, len(t.nodes)),
		leaves: back[:0:leaves],
		chains: make(map[Label][]*Node, len(counts)),
	}
	back = back[leaves:]
	for label, c := range counts {
		idx.chains[label] = back[:0:c]
		back = back[c:]
	}
	var clock int32
	var rec func(n *Node)
	rec = func(n *Node) {
		span := nodeSpan{in: clock, leafLo: int32(len(idx.leaves))}
		clock++
		idx.chains[n.label] = append(idx.chains[n.label], n)
		if n.IsLeaf() {
			idx.leaves = append(idx.leaves, n)
		} else {
			for _, c := range n.children {
				rec(c)
			}
		}
		span.out = clock
		clock++
		span.leafHi = int32(len(idx.leaves))
		idx.spans[n.id] = span
	}
	if t.root != nil {
		rec(t.root)
	}
	return idx
}

// invalidateIndex drops the cached index after a structural mutation.
// The maintained PosIndex (positions.go) is deliberately not dropped
// here: the same mutations that invalidate this snapshot notify the
// position index incrementally through onAttach/onDetach hooks. The
// fingerprint cache rides along: every mutation that can invalidate
// the structural snapshot also changes subtree content hashes.
func (t *Tree) invalidateIndex() {
	t.index = nil
	t.invalidateFingerprints()
}

// IsAncestor reports whether a is a proper ancestor of n, by interval
// containment. Nodes not covered by the index (inserted after it was
// built, which cannot happen through the owning tree) report false.
func (ix *Index) IsAncestor(a, n *Node) bool {
	return ix.IsAncestorID(a.id, n.id)
}

// span returns the span of the node with the given ID; ok is false for
// IDs outside the index.
func (ix *Index) span(id NodeID) (s nodeSpan, ok bool) {
	if uint64(id) < uint64(len(ix.spans)) {
		s = ix.spans[id]
	}
	return s, s.out != 0
}

// IsAncestorID is IsAncestor on node IDs.
func (ix *Index) IsAncestorID(a, n NodeID) bool {
	sa, ok := ix.span(a)
	if !ok {
		return false
	}
	sn, ok := ix.span(n)
	if !ok {
		return false
	}
	return sa.in < sn.in && sn.out < sa.out
}

// NumLeaves returns |n|, the number of leaf descendants of n (a leaf
// contains itself), in O(1).
func (ix *Index) NumLeaves(n *Node) int {
	s, _ := ix.span(n.id)
	return int(s.leafHi - s.leafLo)
}

// LeavesUnder returns the leaf descendants of n in document order as a
// subslice of the index's flat leaf sequence. Callers must not modify
// the returned slice.
func (ix *Index) LeavesUnder(n *Node) []*Node {
	s, ok := ix.span(n.id)
	if !ok {
		return nil
	}
	return ix.leaves[s.leafLo:s.leafHi]
}

// Chain returns the nodes carrying the given label in document order,
// equivalent to (*Tree).Chain but precomputed. Callers must not modify
// the returned slice.
func (ix *Index) Chain(label Label) []*Node { return ix.chains[label] }

// Interval returns the Euler entry/exit numbers of the node with the
// given ID. The second result is false for IDs outside the index.
func (ix *Index) Interval(id NodeID) (in, out int32, ok bool) {
	s, ok := ix.span(id)
	return s.in, s.out, ok
}

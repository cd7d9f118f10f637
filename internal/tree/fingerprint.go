package tree

import (
	"ladiff/internal/fingerprint"
)

// Fingerprint is the 128-bit Merkle content hash of a subtree: a hash
// of (label, value, ordered child fingerprints). Two subtrees with
// equal fingerprints are, up to hash collision, isomorphic in the
// paper's §3.1 sense (same shape, labels, and values, IDs ignored) —
// which is exactly the "identical subtree" relation the matcher's
// pruning pass and the serving tier's diff cache key on. Consumers
// that act on fingerprint equality re-verify structurally (or
// isomorphically) before trusting it.
type Fingerprint = fingerprint.FP

// CombineFunc computes one node's fingerprint from its label, value,
// and its children's fingerprints in order. Injectable so tests can
// force collisions with a deliberately weak combiner; production code
// always uses DefaultCombine.
type CombineFunc func(label Label, value string, children []Fingerprint) Fingerprint

// DefaultCombine is the production node hash: FNV-128a over the
// length-prefixed label and value followed by the child count and the
// ordered child fingerprints. Length prefixes keep field boundaries
// unambiguous; including the child count distinguishes a node from its
// own single-child wrapper chains.
func DefaultCombine(label Label, value string, children []Fingerprint) Fingerprint {
	h := fingerprint.New()
	h.WriteUvarint(uint64(len(label)))
	h.WriteString(string(label))
	h.WriteUvarint(uint64(len(value)))
	h.WriteString(value)
	h.WriteUvarint(uint64(len(children)))
	for _, c := range children {
		h.WriteFP(c)
	}
	return h.Sum()
}

// FPIndex is a snapshot of per-subtree fingerprints for every node of
// a tree, plus the root fingerprint. Like Index it is immutable after
// construction and safe for concurrent readers provided the tree is
// not mutated concurrently; any mutation that can change content
// (structural edits and SetValue) invalidates the cached copy.
type FPIndex struct {
	fps  map[NodeID]Fingerprint
	root Fingerprint
}

// Fingerprints returns the tree's fingerprint index, building it on
// first use in one O(n) post-order pass. The returned index reflects
// the tree as of the call; it is invalidated (and rebuilt on the next
// call) by any mutation, including SetValue — unlike the structural
// Index, fingerprints do hash values.
func (t *Tree) Fingerprints() *FPIndex {
	if t.fp == nil {
		t.fp = BuildFingerprints(t, nil)
	}
	return t.fp
}

// BuildFingerprints computes a fresh fingerprint index for t using the
// given combiner (nil means DefaultCombine). It does not touch the
// tree's cache; use (*Tree).Fingerprints for the cached production
// path. Exported with an injectable combiner so collision-handling
// tests can hash every subtree to the same value and prove the
// matcher's structural verification holds.
func BuildFingerprints(t *Tree, combine CombineFunc) *FPIndex {
	if combine == nil {
		combine = DefaultCombine
	}
	ix := &FPIndex{fps: make(map[NodeID]Fingerprint, t.live)}
	var rec func(n *Node) Fingerprint
	rec = func(n *Node) Fingerprint {
		var kids []Fingerprint
		if len(n.children) > 0 {
			kids = make([]Fingerprint, len(n.children))
			for i, c := range n.children {
				kids[i] = rec(c)
			}
		}
		f := combine(n.label, n.value, kids)
		ix.fps[n.id] = f
		return f
	}
	if t.root != nil {
		ix.root = rec(t.root)
	}
	return ix
}

// Root returns the whole-tree fingerprint, or the zero Fingerprint for
// an empty tree.
func (ix *FPIndex) Root() Fingerprint { return ix.root }

// Of returns the fingerprint of the subtree rooted at the node with
// the given ID. The second result is false for IDs outside the index.
func (ix *FPIndex) Of(id NodeID) (Fingerprint, bool) {
	f, ok := ix.fps[id]
	return f, ok
}

// Len returns the number of fingerprinted nodes.
func (ix *FPIndex) Len() int { return len(ix.fps) }

// invalidateFingerprints drops the cached fingerprint index. Called by
// every structural mutation (via invalidateIndex) and additionally by
// SetValue, which skips the structural index — values are hashed.
func (t *Tree) invalidateFingerprints() { t.fp = nil }

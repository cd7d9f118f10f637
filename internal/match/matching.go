// Package match implements the Good Matching problem of Chawathe et al.
// (SIGMOD 1996, §5): finding a partial one-to-one correspondence between
// the nodes of an old tree T1 and a new tree T2, without assuming object
// identifiers.
//
// Two algorithms are provided. Match (Figure 10) compares every unmatched
// node against every candidate with the same label, in O(n²c + mn) time
// (Appendix B). FastMatch (Figure 11) first aligns the left-to-right
// chains of same-labeled nodes with Myers' LCS, then falls back to Match
// for the leftovers, giving O((ne+e²)c + 2lne) where e is the weighted
// edit distance — far cheaper when the trees are similar. Both enforce
// Matching Criteria 1 and 2; under Criterion 3 and acyclic labels the
// result is the unique maximal matching (Theorem 5.2).
package match

import (
	"fmt"
	"maps"
	"sort"

	"ladiff/internal/tree"
)

// Matching is a partial one-to-one correspondence between node IDs of an
// old tree and a new tree. The zero value is not usable; call NewMatching.
type Matching struct {
	fwd map[tree.NodeID]tree.NodeID // old -> new
	rev map[tree.NodeID]tree.NodeID // new -> old
}

// NewMatching returns an empty matching.
func NewMatching() *Matching {
	return &Matching{
		fwd: make(map[tree.NodeID]tree.NodeID),
		rev: make(map[tree.NodeID]tree.NodeID),
	}
}

// Add records that old node x corresponds to new node y. It returns an
// error if either node is already matched, preserving the one-to-one
// property.
func (m *Matching) Add(x, y tree.NodeID) error {
	if prev, ok := m.fwd[x]; ok {
		return fmt.Errorf("match: old node %d already matched to %d", x, prev)
	}
	if prev, ok := m.rev[y]; ok {
		return fmt.Errorf("match: new node %d already matched to %d", y, prev)
	}
	m.fwd[x] = y
	m.rev[y] = x
	return nil
}

// Remove deletes the pair involving old node x, if present.
func (m *Matching) Remove(x tree.NodeID) {
	if y, ok := m.fwd[x]; ok {
		delete(m.fwd, x)
		delete(m.rev, y)
	}
}

// ToNew returns the partner of old node x, if any.
func (m *Matching) ToNew(x tree.NodeID) (tree.NodeID, bool) {
	y, ok := m.fwd[x]
	return y, ok
}

// ToOld returns the partner of new node y, if any.
func (m *Matching) ToOld(y tree.NodeID) (tree.NodeID, bool) {
	x, ok := m.rev[y]
	return x, ok
}

// Has reports whether the pair (x, y) is in the matching.
func (m *Matching) Has(x, y tree.NodeID) bool {
	got, ok := m.fwd[x]
	return ok && got == y
}

// MatchedOld reports whether old node x participates in the matching.
func (m *Matching) MatchedOld(x tree.NodeID) bool { _, ok := m.fwd[x]; return ok }

// MatchedNew reports whether new node y participates in the matching.
func (m *Matching) MatchedNew(y tree.NodeID) bool { _, ok := m.rev[y]; return ok }

// Len returns the number of matched pairs.
func (m *Matching) Len() int { return len(m.fwd) }

// Pair is one (old, new) correspondence.
type Pair struct {
	Old, New tree.NodeID
}

// Pairs returns all pairs sorted by old node ID, for deterministic
// iteration and display.
func (m *Matching) Pairs() []Pair {
	out := make([]Pair, 0, len(m.fwd))
	for x, y := range m.fwd {
		out = append(out, Pair{Old: x, New: y})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Old < out[j].Old })
	return out
}

// Clone returns an independent copy of the matching.
func (m *Matching) Clone() *Matching {
	return &Matching{fwd: maps.Clone(m.fwd), rev: maps.Clone(m.rev)}
}

// Contains reports whether every pair of m is also in other.
func (m *Matching) Contains(other *Matching) bool {
	for x, y := range other.fwd {
		if got, ok := m.fwd[x]; !ok || got != y {
			return false
		}
	}
	return true
}

// Validate checks that the matching is a bijection between nodes that
// exist in t1 and t2 respectively and that matched pairs share labels.
func (m *Matching) Validate(t1, t2 *tree.Tree) error {
	if len(m.fwd) != len(m.rev) {
		return fmt.Errorf("match: %d forward pairs but %d reverse pairs", len(m.fwd), len(m.rev))
	}
	for x, y := range m.fwd {
		nx, ny := t1.Node(x), t2.Node(y)
		if nx == nil {
			return fmt.Errorf("match: old node %d not in old tree", x)
		}
		if ny == nil {
			return fmt.Errorf("match: new node %d not in new tree", y)
		}
		if back, ok := m.rev[y]; !ok || back != x {
			return fmt.Errorf("match: pair (%d,%d) missing reverse entry", x, y)
		}
		if nx.Label() != ny.Label() {
			return fmt.Errorf("match: pair (%v,%v) has differing labels", nx, ny)
		}
	}
	return nil
}

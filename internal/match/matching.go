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
	"slices"

	"ladiff/internal/tree"
)

// Matching is a partial one-to-one correspondence between node IDs of an
// old tree and a new tree. The zero value is an empty matching.
type Matching struct {
	// fwd and rev are indexed by node ID: fwd[x] is old node x's new
	// partner, rev[y] new node y's old partner, and 0 means unmatched.
	// Both grow on demand to cover the IDs added.
	fwd, rev []tree.NodeID
	// n counts the pairs.
	n int
}

// NewMatching returns an empty matching.
func NewMatching() *Matching { return &Matching{} }

// partner returns s[id], or 0 when id is outside s.
func partner(s []tree.NodeID, id tree.NodeID) tree.NodeID {
	if uint64(id) < uint64(len(s)) {
		return s[id]
	}
	return 0
}

// grow extends s with zeros to length at least n.
func grow(s []tree.NodeID, n int) []tree.NodeID {
	if gap := n - len(s); gap > 0 {
		s = append(s, make([]tree.NodeID, gap)...)
	}
	return s
}

// set stores s[id] = v, growing s as needed.
func set(s []tree.NodeID, id, v tree.NodeID) []tree.NodeID {
	s = grow(s, int(id)+1)
	s[id] = v
	return s
}

// reserve grows the tables to cover old IDs below n1 and new IDs below
// n2, so that Adds within those bounds write in place.
func (m *Matching) reserve(n1, n2 tree.NodeID) {
	m.fwd = grow(m.fwd, int(n1))
	m.rev = grow(m.rev, int(n2))
}

// Add records that old node x corresponds to new node y. It returns an
// error if either ID is not positive or either node is already matched,
// preserving the one-to-one property.
func (m *Matching) Add(x, y tree.NodeID) error {
	if x <= 0 || y <= 0 {
		return fmt.Errorf("match: pair (%d,%d) has a non-positive node ID", x, y)
	}
	if prev := partner(m.fwd, x); prev != 0 {
		return fmt.Errorf("match: old node %d already matched to %d", x, prev)
	}
	if prev := partner(m.rev, y); prev != 0 {
		return fmt.Errorf("match: new node %d already matched to %d", y, prev)
	}
	m.fwd = set(m.fwd, x, y)
	m.rev = set(m.rev, y, x)
	m.n++
	return nil
}

// Remove deletes the pair involving old node x, if present.
func (m *Matching) Remove(x tree.NodeID) {
	if y := partner(m.fwd, x); y != 0 {
		m.fwd[x] = 0
		m.rev[y] = 0
		m.n--
	}
}

// ToNew returns the partner of old node x, if any.
func (m *Matching) ToNew(x tree.NodeID) (tree.NodeID, bool) {
	y := partner(m.fwd, x)
	return y, y != 0
}

// ToOld returns the partner of new node y, if any.
func (m *Matching) ToOld(y tree.NodeID) (tree.NodeID, bool) {
	x := partner(m.rev, y)
	return x, x != 0
}

// Has reports whether the pair (x, y) is in the matching.
func (m *Matching) Has(x, y tree.NodeID) bool {
	return y != 0 && partner(m.fwd, x) == y
}

// MatchedOld reports whether old node x participates in the matching.
func (m *Matching) MatchedOld(x tree.NodeID) bool { return partner(m.fwd, x) != 0 }

// MatchedNew reports whether new node y participates in the matching.
func (m *Matching) MatchedNew(y tree.NodeID) bool { return partner(m.rev, y) != 0 }

// Len returns the number of matched pairs.
func (m *Matching) Len() int { return m.n }

// Pair is one (old, new) correspondence.
type Pair struct {
	Old, New tree.NodeID
}

// Pairs returns all pairs sorted by old node ID, for deterministic
// iteration and display.
func (m *Matching) Pairs() []Pair {
	out := make([]Pair, 0, m.n)
	for x, y := range m.fwd {
		if y != 0 {
			out = append(out, Pair{Old: tree.NodeID(x), New: y})
		}
	}
	return out
}

// Clone returns an independent copy of the matching.
func (m *Matching) Clone() *Matching {
	return &Matching{fwd: slices.Clone(m.fwd), rev: slices.Clone(m.rev), n: m.n}
}

// Contains reports whether every pair of m is also in other.
func (m *Matching) Contains(other *Matching) bool {
	for x, y := range other.fwd {
		if y != 0 && partner(m.fwd, tree.NodeID(x)) != y {
			return false
		}
	}
	return true
}

// Validate checks that the matching is a bijection between nodes that
// exist in t1 and t2 respectively and that matched pairs share labels.
func (m *Matching) Validate(t1, t2 *tree.Tree) error {
	for y, x := range m.rev {
		if x != 0 && partner(m.fwd, x) != tree.NodeID(y) {
			return fmt.Errorf("match: pair (%d,%d) missing forward entry", x, y)
		}
	}
	for x, y := range m.fwd {
		if y == 0 {
			continue
		}
		nx, ny := t1.Node(tree.NodeID(x)), t2.Node(y)
		if nx == nil {
			return fmt.Errorf("match: old node %d not in old tree", x)
		}
		if ny == nil {
			return fmt.Errorf("match: new node %d not in new tree", y)
		}
		if partner(m.rev, y) != tree.NodeID(x) {
			return fmt.Errorf("match: pair (%d,%d) missing reverse entry", x, y)
		}
		if nx.Label() != ny.Label() {
			return fmt.Errorf("match: pair (%v,%v) has differing labels", nx, ny)
		}
	}
	return nil
}

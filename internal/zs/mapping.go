package zs

import (
	"context"
	"sort"

	"ladiff/internal/tree"
)

// MapPair is one aligned node pair of an optimal [ZS89] mapping: Old was
// relabeled to (or is identical to) New.
type MapPair struct {
	Old, New *tree.Node
}

// Mapping computes an optimal [ZS89] edit mapping between t1 and t2 under
// the given costs, returning the aligned node pairs in post-order of t1
// (and so of t2: a mapping preserves order) and the distance. The
// mapping is the certificate behind the distance: nodes of t1 outside
// the mapping are deleted, nodes of t2 outside it inserted, and every
// pair either matches exactly or is relabeled.
//
// The paper (§5) notes that the only known algorithm for the *best
// matching* — the matching whose conforming edit script is globally
// cheapest — post-processes exactly this mapping [Zha95], at O(n²) cost.
// Pair Mapping with MatchingCosts and feed the label-equal pairs to
// Algorithm EditScript to get that expensive-but-optimal pipeline (see
// core.ZSMatcher).
//
// Backtracking recomputes forest-distance tables on demand (one per
// visited subtree pair) beyond the O(n1·n2) tree-distance table the
// forward pass fills. A non-nil ctx bounds the run: it is polled once
// per keyroot of t1 in the forward pass and once per table backtracking
// recomputes, and a cancelled or expired ctx aborts with ctx.Err()
// wrapped.
func Mapping(ctx context.Context, t1, t2 *tree.Tree, c Costs) ([]MapPair, float64, error) {
	if err := check(t1, t2, c); err != nil {
		return nil, 0, err
	}
	o1, o2 := layout(t1, t2)
	s, err := newSolver(ctx, o1, o2, c)
	if err != nil {
		return nil, 0, err
	}
	out, err := s.mapping()
	if err != nil {
		return nil, 0, err
	}
	if o1.mirrored {
		rank := make(map[*tree.Node]int, len(o1.nodes))
		for i, n := range t1.PostOrder() {
			rank[n] = i
		}
		sort.Slice(out, func(a, b int) bool { return rank[out[a].Old] < rank[out[b].Old] })
	}
	return out, s.distance(), nil
}

// mapping backtracks one optimal mapping, in the post-order of the
// solver's layout.
func (s *solver) mapping() ([]MapPair, error) {
	var out []MapPair
	if err := s.backtrack(len(s.o1.nodes), len(s.o2.nodes), &out); err != nil {
		return nil, err
	}
	// Reverse into post-order (backtrack walks right-to-left).
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return out, nil
}

// backtrack walks an optimal path through the forest table for subtrees
// (i, j), emitting matched pairs and recursing into subtree jumps.
func (s *solver) backtrack(i, j int, out *[]MapPair) error {
	if err := s.poll(); err != nil {
		return err
	}
	o1, o2, c := s.o1, s.o2, s.c
	li, lj := o1.leftmost[i-1], o2.leftmost[j-1]
	fd := s.forest(i, j)
	const eps = 1e-9
	di, dj := i, j
	for di >= li || dj >= lj {
		r, col := 0, 0
		if di >= li {
			r = di - li + 1
		}
		if dj >= lj {
			col = dj - lj + 1
		}
		switch {
		case r > 0 && fd[r][col] >= fd[r-1][col]+c.Delete(o1.nodes[di-1])-eps &&
			fd[r][col] <= fd[r-1][col]+c.Delete(o1.nodes[di-1])+eps:
			di--
		case col > 0 && fd[r][col] >= fd[r][col-1]+c.Insert(o2.nodes[dj-1])-eps &&
			fd[r][col] <= fd[r][col-1]+c.Insert(o2.nodes[dj-1])+eps:
			dj--
		default:
			if o1.leftmost[di-1] == li && o2.leftmost[dj-1] == lj {
				// Relabel/match step.
				*out = append(*out, MapPair{Old: o1.nodes[di-1], New: o2.nodes[dj-1]})
				di--
				dj--
			} else {
				// Subtree jump: the two subtrees rooted at di, dj were
				// matched as wholes; recurse, then skip them.
				if err := s.backtrack(di, dj, out); err != nil {
					return err
				}
				di = o1.leftmost[di-1] - 1
				dj = o2.leftmost[dj-1] - 1
			}
		}
	}
	return nil
}

// MatchingCosts is the cost model to use when the mapping will seed a
// matching for Algorithm EditScript: cross-label relabels are priced
// above delete+insert, so the optimal mapping never pairs nodes with
// different labels (matchings must be label-preserving, §3.1), and
// same-label relabels are priced by how different the values are so that
// near-identical nodes pair up preferentially.
func MatchingCosts(valueDistance func(a, b string) float64) Costs {
	one := func(*tree.Node) float64 { return 1 }
	return Costs{
		Insert: one,
		Delete: one,
		Relabel: func(a, b *tree.Node) float64 {
			if a.Label() != b.Label() {
				return 3 // > delete + insert: never chosen
			}
			if a.Value() == b.Value() {
				return 0
			}
			if valueDistance == nil {
				return 1
			}
			d := valueDistance(a.Value(), b.Value())
			if d > 2 {
				d = 2
			}
			return d
		},
	}
}

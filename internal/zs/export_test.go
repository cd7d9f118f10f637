package zs

import "ladiff/internal/tree"

// SolveSide runs the DP in the given sibling order, bypassing the
// automatic choice, and returns the distance and one optimal mapping,
// in the post-order of that side's layout.
func SolveSide(t1, t2 *tree.Tree, c Costs, mirrored bool) (float64, []MapPair, error) {
	s, err := newSolver(nil, prepare(t1, mirrored), prepare(t2, mirrored), c)
	if err != nil {
		return 0, nil, err
	}
	pairs, err := s.mapping()
	return s.distance(), pairs, err
}

// LayoutOrder returns t's nodes in post-order for the given sibling
// order.
func LayoutOrder(t *tree.Tree, mirrored bool) []*tree.Node {
	return prepare(t, mirrored).nodes
}

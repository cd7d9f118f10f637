package match

import (
	"sort"

	"ladiff/internal/compare"
	"ladiff/internal/tree"
)

// Criterion3Violations finds the leaves that violate Matching Criterion 3:
// a leaf x of t1 violates it when more than one leaf of t2 with the same
// label lies within distance 1 of x (and symmetrically for leaves of t2).
// FastMatch is guaranteed optimal only when no leaf violates the
// criterion; the audit quantifies how far a given input is from that
// guarantee. It returns the violating leaf IDs of each tree.
//
// The audit is quadratic in the number of leaves per label — it exists
// for measurement (Table 1), not for the matching hot path.
func Criterion3Violations(t1, t2 *tree.Tree, opts Options) (oldIDs, newIDs []tree.NodeID, err error) {
	mr, err := newMatcher(t1, t2, opts)
	if err != nil {
		return nil, nil, err
	}
	byLabel := func(t *tree.Tree) map[tree.Label][]*tree.Node {
		out := make(map[tree.Label][]*tree.Node)
		for _, n := range t.Leaves() {
			out[n.Label()] = append(out[n.Label()], n)
		}
		return out
	}
	l1, l2 := byLabel(t1), byLabel(t2)
	distance := mr.opts.Compare
	if distance == nil {
		distance = compare.WordLCS
	}
	within1 := func(a, b *tree.Node) bool {
		mr.opts.Stats.LeafCompares++
		mr.opts.Stats.EffectiveLeafCompares++
		return distance(a.Value(), b.Value()) <= 1
	}
	for label, xs := range l1 {
		ys := l2[label]
		for _, x := range xs {
			close := 0
			for _, y := range ys {
				if within1(x, y) {
					close++
					if close > 1 {
						oldIDs = append(oldIDs, x.ID())
						break
					}
				}
			}
		}
	}
	for label, ys := range l2 {
		xs := l1[label]
		for _, y := range ys {
			close := 0
			for _, x := range xs {
				if within1(x, y) {
					close++
					if close > 1 {
						newIDs = append(newIDs, y.ID())
						break
					}
				}
			}
		}
	}
	sort.Slice(oldIDs, func(i, j int) bool { return oldIDs[i] < oldIDs[j] })
	sort.Slice(newIDs, func(i, j int) bool { return newIDs[i] < newIDs[j] })
	return oldIDs, newIDs, nil
}

// MismatchBound computes, for each internal node with the given label, the
// §8 necessary (but not sufficient) condition for a possible mismatch and
// returns the fraction of such nodes that satisfy it — the "upper bound on
// mismatches" of Table 1.
//
// The condition: an internal node x can be mismatched under threshold t
// only if enough of its leaves are unreliable that the reliable ones can
// no longer force the correct partner, i.e. when
//
//	violating(x) > (1 − t) · |x|
//
// where violating(x) counts leaves under x that violate Criterion 3.
// Intuitively, a candidate partner y ≠ y* can clear the Criterion-2 bar
// |common(x,y)|/max(|x|,|y|) > t only if more than t·|x| of x's leaves
// match into y; since leaves that satisfy Criterion 3 have a unique close
// counterpart (which lies in y*), at most the violating leaves plus the
// leaves y* lost can be claimed by y — so few violations make a mismatch
// impossible. Larger t weakens the condition (fewer violations suffice),
// which is why the paper's Table 1 rises from ≈0% at t=0.5 to 10% at
// t=1.0.
func MismatchBound(t1, t2 *tree.Tree, label tree.Label, t float64, opts Options) (fraction float64, flagged, total int, err error) {
	rows, err := MismatchBoundSweep(t1, t2, label, []float64{t}, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	r := rows[0]
	return r.Fraction, r.Flagged, r.Total, nil
}

// MismatchBoundRow is one threshold's result from MismatchBoundSweep.
type MismatchBoundRow struct {
	T        float64
	Fraction float64
	Flagged  int
	Total    int
}

// MismatchBoundSweep evaluates MismatchBound for several thresholds with
// a single (quadratic) Criterion-3 audit — the form Table 1 needs, since
// the audit dominates and is threshold-independent.
func MismatchBoundSweep(t1, t2 *tree.Tree, label tree.Label, ts []float64, opts Options) ([]MismatchBoundRow, error) {
	oldViol, _, err := Criterion3Violations(t1, t2, opts)
	if err != nil {
		return nil, err
	}
	violating := make(map[tree.NodeID]bool, len(oldViol))
	for _, id := range oldViol {
		violating[id] = true
	}
	type nodeCounts struct{ leaves, bad int }
	var nodes []nodeCounts
	for _, x := range t1.Chain(label) {
		if x.IsLeaf() {
			continue
		}
		leaves := tree.LeavesUnder(x)
		bad := 0
		for _, w := range leaves {
			if violating[w.ID()] {
				bad++
			}
		}
		nodes = append(nodes, nodeCounts{leaves: len(leaves), bad: bad})
	}
	rows := make([]MismatchBoundRow, 0, len(ts))
	for _, t := range ts {
		row := MismatchBoundRow{T: t, Total: len(nodes)}
		for _, n := range nodes {
			if float64(n.bad) > (1-t)*float64(n.leaves) {
				row.Flagged++
			}
		}
		if row.Total > 0 {
			row.Fraction = float64(row.Flagged) / float64(row.Total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

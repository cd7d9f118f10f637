package match

import (
	"ladiff/internal/fault"
	"ladiff/internal/lcs"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Match computes the unique maximal matching between t1 and t2 under
// Matching Criteria 1 and 2, using the simple quadratic algorithm of
// Figure 10: proceeding bottom-up over labels, every unmatched node of t1
// is compared against every still-unmatched node of t2 with the same
// label, and the first equal candidate (in document order) is taken.
//
// When Matching Criterion 3 holds and the label schema is acyclic, the
// candidate order is irrelevant: at most one candidate is equal (Lemma
// C.3), so the result is the unique maximal matching of Theorem 5.2.
// Running time is O(n²c + mn) (Appendix B). Independent labels of equal
// bottom-up rank are processed concurrently under Options.Parallelism;
// the result is bit-identical to the sequential run (see parallel.go).
func Match(t1, t2 *tree.Tree, opts Options) (_ *Matching, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("match", v)
		}
	}()
	if err := fault.Check(fault.Match); err != nil {
		return nil, err
	}
	mr, err := newMatcher(t1, t2, opts)
	if err != nil {
		return nil, err
	}
	if mr.opts.Key != nil {
		if err := mr.matchByKeys(mr.opts.Key); err != nil {
			return nil, err
		}
	}
	if mr.opts.PruneIdentical {
		mr.pruneIdentical()
	}
	mr.rounds((*matcher).matchLabelQuadratic)
	if err := mr.runErr(); err != nil {
		return nil, err
	}
	return mr.m, nil
}

// matchLabelQuadratic runs one label round of Algorithm Match.
func (mr *matcher) matchLabelQuadratic(label tree.Label) {
	s1 := mr.pruneResidue(mr.idx1.Chain(label), mr.matchedOld)
	s2 := mr.pruneResidue(mr.idx2.Chain(label), mr.matchedNew)
	mr.matchChainsQuadratic(s1, s2)
}

// matchChainsQuadratic pairs unmatched nodes of s1 against unmatched
// nodes of s2 as in Algorithm Match: first equal candidate wins.
func (mr *matcher) matchChainsQuadratic(s1, s2 []*tree.Node) {
	for _, x := range s1 {
		if mr.err != nil {
			return
		}
		if mr.matchedOld(x.ID()) {
			continue
		}
		for _, y := range s2 {
			if mr.matchedNew(y.ID()) {
				continue
			}
			if mr.equal(x, y) {
				mr.add(x, y)
				break
			}
		}
	}
}

// FastMatch computes the same matching as Match but with the chain-LCS
// pre-pass of Figure 11: for each label, the left-to-right chains of
// same-labeled nodes in the two trees are aligned with Myers' LCS under
// the criteria's equality, which matches all nodes that appear in the same
// relative order in one O(ND) pass; only the leftovers fall through to the
// quadratic pairing. Running time is O((ne+e²)c + 2lne) (Appendix B).
// Independent labels of equal bottom-up rank are processed concurrently
// under Options.Parallelism, bit-identically to the sequential run.
//
// When Matching Criterion 3 holds and the label schema is acyclic,
// FastMatch and Match return identical matchings (Theorem 5.2). When
// Criterion 3 is violated FastMatch may return a sub-optimal (but still
// valid) matching; see PostProcess for the §8 repair pass.
func FastMatch(t1, t2 *tree.Tree, opts Options) (_ *Matching, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("match", v)
		}
	}()
	if err := fault.Check(fault.Match); err != nil {
		return nil, err
	}
	mr, err := newMatcher(t1, t2, opts)
	if err != nil {
		return nil, err
	}
	if mr.opts.Key != nil {
		if err := mr.matchByKeys(mr.opts.Key); err != nil {
			return nil, err
		}
	}
	if mr.opts.PruneIdentical {
		mr.pruneIdentical()
	}
	mr.rounds((*matcher).matchLabelFast)
	if err := mr.runErr(); err != nil {
		return nil, err
	}
	return mr.m, nil
}

// matchLabelFast runs one label round of Algorithm FastMatch: the LCS
// alignment of the label chains (steps 2c–2d), then the quadratic pairing
// of the leftovers (step 2e).
func (mr *matcher) matchLabelFast(label tree.Label) {
	s1 := mr.pruneResidue(mr.idx1.Chain(label), mr.matchedOld)
	s2 := mr.pruneResidue(mr.idx2.Chain(label), mr.matchedNew)
	pairs := lcs.Pairs(s1, s2, func(x, y *tree.Node) bool {
		// Nodes matched by a previous label pass (impossible for a
		// homogeneous-label schema, but chains can revisit nodes when
		// labels repeat across levels) must not be re-matched.
		if mr.matchedOld(x.ID()) || mr.matchedNew(y.ID()) {
			return false
		}
		return mr.equal(x, y)
	})
	for _, p := range pairs {
		mr.add(p.First, p.Second)
	}
	mr.matchChainsQuadratic(s1, s2)
}

// PostProcess applies the §8 repair pass to a matching produced when
// Matching Criterion 3 may not hold. Proceeding top-down over t1, for
// each matched node x with partner y it examines every child c of x whose
// partner lies outside y; if some child c” of y is equal to c under the
// criteria, c is re-matched to c”. Following the paper's "we change the
// current matching", a candidate c” that is already matched may be
// displaced when its own match is non-local (its partner's parent is not
// its parent's partner) — the crossed pair was going to cost a move
// anyway, and the local re-match saves it. Finally, unmatched children of
// x are paired with unmatched equal children of y, restoring maximality
// after displacements. The pass removes the sub-optimalities that did not
// propagate upward from lower levels. It returns the number of pairs
// rewritten or added.
func PostProcess(t1, t2 *tree.Tree, m *Matching, opts Options) (_ int, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("match", v)
		}
	}()
	mr, err := newMatcher(t1, t2, opts)
	if err != nil {
		return 0, err
	}
	mr.m = m
	rewritten := 0
	// isLocal reports whether new node cc's current match already pairs
	// it with a child of its parent's partner.
	isLocal := func(cc *tree.Node) bool {
		oldID, ok := m.ToOld(cc.ID())
		if !ok {
			return false
		}
		oldNode := t1.Node(oldID)
		if oldNode == nil || oldNode.Parent() == nil || cc.Parent() == nil {
			return true // roots: leave alone
		}
		return m.Has(oldNode.Parent().ID(), cc.Parent().ID())
	}
	for _, x := range t1.BreadthFirst() {
		if mr.checkCtxNow() {
			return rewritten, mr.runErr()
		}
		yID, ok := m.ToNew(x.ID())
		if !ok {
			continue
		}
		y := t2.Node(yID)
		for _, c := range x.Children() {
			cPartnerID, matched := m.ToNew(c.ID())
			if matched && t2.Node(cPartnerID).Parent() == y {
				continue // already local
			}
			for _, cc := range y.Children() {
				if m.MatchedNew(cc.ID()) && isLocal(cc) {
					continue
				}
				if !mr.equal(c, cc) {
					continue
				}
				// Displace cc's non-local match, if any, then re-match.
				if oldID, ok := m.ToOld(cc.ID()); ok {
					m.Remove(oldID)
				}
				m.Remove(c.ID())
				mr.add(c, cc)
				rewritten++
				break
			}
		}
		// Maximality restoration: pair leftover unmatched children.
		for _, c := range x.Children() {
			if m.MatchedOld(c.ID()) {
				continue
			}
			for _, cc := range y.Children() {
				if m.MatchedNew(cc.ID()) {
					continue
				}
				if mr.equal(c, cc) {
					mr.add(c, cc)
					rewritten++
					break
				}
			}
		}
	}
	return rewritten, nil
}

package match

import (
	"errors"
	"fmt"

	"ladiff/internal/lderr"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// ZSMatch is the "zs" engine: it derives the matching from an optimal
// Zhang–Shasha edit mapping under zs.MatchingCosts — the §5 "best
// matching" route via [Zha95]. Cross-label pairs are priced out,
// same-label pairs priced by value distance, so every surviving pair is
// a legal matching entry. It ignores the matching criteria (no
// thresholds) and pairs nodes to globally minimize insert/delete/
// relabel cost — the thorough-but-expensive end of the paper's §2
// trade-off, O(n² log² n) or worse. It polls opts.Ctx like the other
// matchers, and degrades (an lderr.ErrDegraded-tagged error) before any
// DP work when the tree product exceeds opts.WorkBudget or the
// tree-distance table would exceed maxZSTableCells.
func ZSMatch(old, new *tree.Tree, opts Options) (*Matching, error) {
	// Budget pre-gate: Zhang–Shasha is Ω(n1·n2) before the first useful
	// result, so a budgeted run whose tree product already exceeds the
	// budget degrades immediately instead of burning the work first.
	if err := gateQuadraticBudget("zs", old, new, opts.WorkBudget); err != nil {
		return nil, err
	}
	if err := gateZSTable(old.Len(), new.Len()); err != nil {
		return nil, err
	}
	pairs, _, err := zs.Mapping(opts.Ctx, old, new, zs.MatchingCosts(opts.Compare))
	if err != nil {
		return nil, err
	}
	m := NewMatching()
	for _, p := range pairs {
		if p.Old.Label() != p.New.Label() {
			// MatchingCosts makes this impossible unless delete+insert
			// tied with a forbidden relabel; skip defensively.
			continue
		}
		if err := m.Add(p.Old.ID(), p.New.ID()); err != nil {
			return nil, fmt.Errorf("match: optimal mapping not one-to-one: %w", err)
		}
	}
	return m, nil
}

// gateQuadraticBudget degrades an engine whose work is Ω(n1·n2) before
// it produces anything, when that product already exceeds the budget.
func gateQuadraticBudget(engine string, old, new *tree.Tree, budget int64) error {
	if budget <= 0 {
		return nil
	}
	if n1, n2 := int64(old.Len()), int64(new.Len()); n1 > 0 && n2 > budget/n1 {
		return lderr.Degraded(fmt.Errorf(
			"match: %s engine needs ≥ %d·%d work units, budget is %d", engine, n1, n2, budget))
	}
	return nil
}

// maxZSTableCells bounds the zs engine's (n1+1)·(n2+1) tree-distance
// table, which Zhang–Shasha allocates before any work: 2^26 float64
// cells, 512 MiB. The largest input the repository runs through zs, a
// sparse-1pct pair of ~5k nodes per tree, needs ~26M cells. Past the
// bound the engine degrades, budget or no budget: a failed allocation
// is a fatal runtime error no recover can contain.
const maxZSTableCells = 1 << 26

// ErrZSTableBound marks a zs run refused by maxZSTableCells.
var ErrZSTableBound = errors.New("match: zs table over its cell bound")

func gateZSTable(n1, n2 int) error {
	if cells := int64(n1+1) * int64(n2+1); cells > maxZSTableCells {
		return lderr.Degraded(fmt.Errorf("%w: %d×%d nodes need %d cells, bound is %d",
			ErrZSTableBound, n1, n2, cells, maxZSTableCells))
	}
	return nil
}

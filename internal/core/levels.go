package core

import (
	"fmt"

	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// OptimalityLevel realizes the paper's proposed parameterized algorithm
// A(k) (§9, future work): "the parameter k specifies the desired level of
// optimality", trading script quality against running time. Each level
// composes pieces the paper already defines; higher levels cost more and
// tolerate worse inputs (Criterion 3 violations, heavy reordering).
type OptimalityLevel int

const (
	// LevelFast is A(0): Algorithm FastMatch alone. Near-linear on
	// similar trees; when Criteria 1–3 hold and labels are acyclic its
	// matching is the unique maximal one (Theorem 5.2), which still
	// need not give the cheapest script.
	LevelFast OptimalityLevel = iota
	// LevelRepair is A(1): FastMatch plus the §8 top-down repair pass,
	// which removes non-propagated sub-optimalities caused by Criterion 3
	// violations. Marginal extra cost.
	LevelRepair
	// LevelThorough is A(2): the quadratic Algorithm Match plus the
	// repair pass. Immune to chain reordering that starves FastMatch's
	// LCS pre-pass; O(n²c) worst case.
	LevelThorough
	// LevelOptimal is A(3): the matching is derived from an optimal
	// Zhang–Shasha edit mapping ([Zha95] via internal/zs), ignoring the
	// matching criteria entirely. The pairing minimizes the ZS
	// insert/delete/relabel cost, not the paper's move-aware cost, at
	// Ω(n²·log²n); intended for small trees or offline use — the
	// "thorough algorithm" end of the §2 trade-off.
	LevelOptimal
)

// String names the level.
func (k OptimalityLevel) String() string {
	switch k {
	case LevelFast:
		return "A(0)/fast"
	case LevelRepair:
		return "A(1)/repair"
	case LevelThorough:
		return "A(2)/thorough"
	case LevelOptimal:
		return "A(3)/optimal"
	default:
		return fmt.Sprintf("OptimalityLevel(%d)", int(k))
	}
}

// DiffAtLevel runs the pipeline at optimality level k with the given
// matching options (thresholds apply to levels 0–2; level 3 uses only
// the comparer).
func DiffAtLevel(old, new *tree.Tree, k OptimalityLevel, mopts match.Options) (*Result, error) {
	opts := Options{Match: mopts}
	switch k {
	case LevelFast:
		opts.Matcher = FastMatcher
	case LevelRepair:
		opts.Matcher = FastMatcher
		opts.PostProcess = true
	case LevelThorough:
		opts.Matcher = SimpleMatcher
		opts.PostProcess = true
	case LevelOptimal:
		opts.Matcher = ZSMatcher
	default:
		return nil, fmt.Errorf("core: unknown optimality level %d", k)
	}
	return Diff(old, new, opts)
}

package match

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"ladiff/internal/compare"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Default thresholds. The leaf threshold f may range over [0,1] (Matching
// Criterion 1); the admissible maximum of 1 accepts any pair for which a
// move-plus-update is still no costlier than a delete-plus-insert, but in
// prose it lets sentences sharing only half their words match, so we
// default to the stricter midpoint. The internal threshold t must satisfy
// ½ ≤ t ≤ 1 (Matching Criterion 2); the paper's experiments sweep t over
// [0.5, 1.0] and we default to its mid-low setting.
const (
	DefaultLeafThreshold     = 0.5
	DefaultInternalThreshold = 0.6
)

// Options configures the matching algorithms.
type Options struct {
	// Compare measures leaf-value distance in [0,2]. Nil means the
	// word-LCS sentence comparer LaDiff uses (§7), which the matcher runs
	// in its token form: byte-identical values match without being
	// split, each other value is tokenized once and reused across every
	// pairwise comparison, and compare.Tokens.Within decides the pair
	// against the leaf threshold, rejecting most dissimilar pairs before
	// any LCS search.
	Compare compare.Func
	// LeafThreshold is f in Matching Criterion 1: leaves may match only
	// when Compare(v(x), v(y)) ≤ f. Zero means DefaultLeafThreshold;
	// values must lie in [0,1].
	LeafThreshold float64
	// InternalThreshold is t in Matching Criterion 2: internal nodes may
	// match only when |common(x,y)| / max(|x|,|y|) > t. Zero means
	// DefaultInternalThreshold; values must lie in [0.5,1].
	InternalThreshold float64
	// Key, when non-nil, enables the §1 keyed fast path: nodes whose
	// (label, key) pair is unique in both trees are matched directly
	// before the criteria-based algorithms run. Keyless nodes (ok =
	// false) fall through to value-based matching, so mixed data — some
	// objects keyed, some not — works as the paper describes.
	Key KeyFunc
	// PruneIdentical enables the Merkle pre-match pruning pass: before
	// any label round runs, subtrees with equal content fingerprints are
	// verified structurally and matched wholesale, and the label rounds
	// operate on the unmatched residue only (see prune.go). Matching
	// work then scales with the edited region instead of the document.
	// The resulting matching may differ from the criteria algorithms'
	// (identical regions are claimed greedily largest-first), but every
	// pair satisfies the criteria and the one-to-one invariant. Off by
	// default; disabled runs are byte-identical to an engine without the
	// pass.
	PruneIdentical bool
	// PruneFP1 and PruneFP2 override the fingerprint indexes consulted
	// by the pruning pass for t1 and t2 respectively. Nil (the norm)
	// means each tree's own cached Fingerprints(). Injectable so
	// collision tests can force a weak hash, and so callers that already
	// hold fresh indexes can avoid a rebuild.
	PruneFP1, PruneFP2 *tree.FPIndex
	// Stats, when non-nil, accumulates the work counters of the §8
	// empirical study.
	Stats *Stats
	// Parallelism bounds the worker pool used to process independent
	// same-rank label rounds concurrently. 0 means runtime.GOMAXPROCS(0);
	// 1 forces fully sequential rounds. Results and every Stats counter
	// are bit-identical at every setting; only wall-clock varies.
	Parallelism int
	// Ctx, when non-nil, bounds the run: the matchers poll it between
	// label rounds and periodically inside the pairing loops (every
	// ctxPollStride equality evaluations), and return ctx.Err() wrapped
	// once it is cancelled or past its deadline. Nil means no deadline —
	// the run always completes. Cancellation aborts the run; it never
	// yields a partial matching.
	Ctx context.Context
	// WorkBudget, when positive, bounds the run's logical work in the §8
	// cost-model units (r1 + r2: leaf compares plus partner checks).
	// Exhausting the budget aborts the run with an lderr.ErrDegraded-
	// tagged error, which callers use to fall back to a cheaper matcher
	// (core.Diff retries with FastMatch). The budget is shared across the
	// parallel workers of a run, so the trip point under Parallelism > 1
	// may land a few comparisons earlier or later than sequentially; a
	// run that completes within budget is still bit-identical at every
	// parallelism setting.
	WorkBudget int64
}

func (o Options) withDefaults() (Options, error) {
	if o.LeafThreshold == 0 {
		o.LeafThreshold = DefaultLeafThreshold
	}
	if o.InternalThreshold == 0 {
		o.InternalThreshold = DefaultInternalThreshold
	}
	// Written so that NaN, which compares false with everything, fails.
	if !(0 <= o.LeafThreshold && o.LeafThreshold <= 1) {
		return o, fmt.Errorf("match: leaf threshold f=%v outside [0,1]", o.LeafThreshold)
	}
	if !(0.5 <= o.InternalThreshold && o.InternalThreshold <= 1) {
		return o, fmt.Errorf("match: internal threshold t=%v outside [0.5,1]", o.InternalThreshold)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("match: negative parallelism %d", o.Parallelism)
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Stats == nil {
		o.Stats = &Stats{}
	}
	return o, nil
}

// Stats records the work measures of the paper's cost model for the
// matching phase (§8): the running time is r1·c + r2, where r1 counts
// invocations of the leaf compare function and r2 counts partner checks
// (implemented, as in LaDiff, as integer comparisons).
//
// r1 and r2 count *logical* comparisons — what the algorithms of Figures
// 10–11 perform — so Figure 13(b) regeneration is independent of the
// engine's shortcuts. Every counter is identical across sequential and
// parallel runs.
type Stats struct {
	// LeafCompares is r1: how many times the compare function logically
	// ran (leaf-pair and empty-container value comparisons).
	LeafCompares int64
	// PartnerChecks is r2: how many containment/partner lookups the
	// internal-node equality evaluation logically performed.
	PartnerChecks int64
	// EffectiveLeafCompares counts compare-function invocations that
	// actually executed. Every logical leaf compare runs the comparer,
	// so it always equals LeafCompares; the field stays because the
	// perfbench harness reads it (its match.memo_hit_ratio,
	// 1 − EffectiveLeafCompares/LeafCompares, is therefore 0).
	EffectiveLeafCompares int64
	// PrunedSubtrees counts wholesale subtree claims committed by the
	// fingerprint pruning pass (zero unless Options.PruneIdentical).
	// Pruned work is deliberately outside r1/r2: those count the logical
	// comparisons of Figures 10–11, which the disabled mode must
	// reproduce bit for bit.
	PrunedSubtrees int64
	// PrunedPairs counts node pairs matched by pruning — the sum of the
	// claimed subtree sizes.
	PrunedPairs int64
	// PruneVerifyNodes counts nodes visited by the structural
	// verification of fingerprint-equal candidates (the collision
	// guard). Rejected probes are collisions or availability races.
	PruneVerifyNodes int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.LeafCompares += other.LeafCompares
	s.PartnerChecks += other.PartnerChecks
	s.EffectiveLeafCompares += other.EffectiveLeafCompares
	s.PrunedSubtrees += other.PrunedSubtrees
	s.PrunedPairs += other.PrunedPairs
	s.PruneVerifyNodes += other.PruneVerifyNodes
}

// Total returns r1 + r2, the comparison count reported in Figure 13(b).
func (s *Stats) Total() int64 { return s.LeafCompares + s.PartnerChecks }

// matcher carries the shared state of one matching run.
type matcher struct {
	t1, t2     *tree.Tree
	idx1, idx2 *tree.Index
	opts       Options
	m          *Matching
	// local is non-nil in a parallel fork: newly discovered pairs go
	// here while m serves as the read-only base matching shared by all
	// of the round's workers. See parallel.go.
	local *Matching
	// toks1/toks2 cache compare.Tokenize(value) per node per tree; the
	// token path runs only when Options.Compare is nil.
	toks1, toks2 map[tree.NodeID]*compare.Tokens
	// ctxPolls counts equality evaluations since the run started; every
	// ctxPollStride-th one consults Options.Ctx. err latches the first
	// cancellation observed and makes all later equality checks refuse
	// immediately, so the enclosing loops unwind fast.
	ctxPolls int64
	err      error
	// budget is the remaining work budget in r1+r2 units, shared across
	// the run's parallel forks; nil when Options.WorkBudget is unset.
	// Going negative latches errBudget into err.
	budget *atomic.Int64
}

// ctxPollStride is how many equality evaluations elapse between context
// polls inside the pairing loops. Each evaluation already does real work
// (a word-LCS bound or a leaf-span walk), so a poll every 64 keeps the
// cancellation latency far below a millisecond without measurable
// overhead on the uncancelled path.
const ctxPollStride = 64

// cancelled reports whether the run's context has been cancelled,
// polling the context only every ctxPollStride calls. Once cancelled it
// stays cancelled (mr.err latches).
func (mr *matcher) cancelled() bool {
	if mr.err != nil {
		return true
	}
	if mr.opts.Ctx == nil {
		return false
	}
	mr.ctxPolls++
	if mr.ctxPolls%ctxPollStride != 0 {
		return false
	}
	return mr.checkCtxNow()
}

// checkCtxNow consults the context unconditionally (used at round
// boundaries, where a check is cheap relative to the round).
func (mr *matcher) checkCtxNow() bool {
	if mr.err != nil {
		return true
	}
	if mr.opts.Ctx == nil {
		return false
	}
	if err := mr.opts.Ctx.Err(); err != nil {
		mr.err = err
		return true
	}
	return false
}

// errBudget is latched when the work budget runs out. It is tagged
// lderr.ErrDegraded so callers can distinguish "too expensive, try a
// cheaper matcher" from cancellation.
var errBudget = lderr.Degraded(errors.New("match: work budget exhausted"))

// charge debits n work units from the shared budget, latching errBudget
// when it runs out. No-op for unbudgeted runs.
func (mr *matcher) charge(n int64) {
	if mr.budget == nil {
		return
	}
	if mr.budget.Add(-n) < 0 && mr.err == nil {
		mr.err = errBudget
	}
}

// runErr converts a latched abort into the error the public matchers
// return: budget exhaustion and recovered worker panics pass through
// (already taxonomy-tagged), cancellation is wrapped and tagged.
func (mr *matcher) runErr() error {
	switch {
	case mr.err == nil:
		return nil
	case errors.Is(mr.err, lderr.ErrDegraded) || errors.Is(mr.err, lderr.ErrInternal):
		return mr.err
	default:
		return lderr.Canceled(fmt.Errorf("match: cancelled: %w", mr.err))
	}
}

func newMatcher(t1, t2 *tree.Tree, opts Options) (*matcher, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if t1.Root() == nil || t2.Root() == nil {
		return nil, errors.New("match: empty tree")
	}
	mr := &matcher{
		t1: t1, t2: t2,
		idx1: t1.Index(), idx2: t2.Index(),
		opts: opts, m: NewMatching(),
	}
	if opts.Compare == nil {
		// The token path tokenizes the value of most leaves once.
		mr.toks1 = make(map[tree.NodeID]*compare.Tokens, mr.idx1.NumLeaves(t1.Root()))
		mr.toks2 = make(map[tree.NodeID]*compare.Tokens, mr.idx2.NumLeaves(t2.Root()))
	}
	if opts.WorkBudget > 0 {
		mr.budget = &atomic.Int64{}
		mr.budget.Store(opts.WorkBudget)
	}
	return mr, nil
}

// matchedOld reports whether old node x is matched, consulting the
// fork-local overlay first (see parallel.go).
func (mr *matcher) matchedOld(x tree.NodeID) bool {
	if mr.local != nil && mr.local.MatchedOld(x) {
		return true
	}
	return mr.m.MatchedOld(x)
}

// matchedNew reports whether new node y is matched.
func (mr *matcher) matchedNew(y tree.NodeID) bool {
	if mr.local != nil && mr.local.MatchedNew(y) {
		return true
	}
	return mr.m.MatchedNew(y)
}

// partnerOfOld returns the partner of old node x, if any.
func (mr *matcher) partnerOfOld(x tree.NodeID) (tree.NodeID, bool) {
	if mr.local != nil {
		if y, ok := mr.local.ToNew(x); ok {
			return y, ok
		}
	}
	return mr.m.ToNew(x)
}

// add records the pair (x, y), panicking on a one-to-one violation —
// callers check both sides unmatched first.
func (mr *matcher) add(x, y *tree.Node) {
	target := mr.m
	if mr.local != nil {
		target = mr.local
	}
	if err := target.Add(x.ID(), y.ID()); err != nil {
		panic(err)
	}
}

// leafValueEqual evaluates the value rule compare(v(x), v(y)) ≤ f,
// charging one leaf compare (r1): through the caller's comparer when one
// is set, otherwise through the word-LCS comparer's token form. There,
// byte-identical values (distance 0) match before either is tokenized,
// and every other pair goes to Tokens.Within on the cached tokens.
func (mr *matcher) leafValueEqual(x, y *tree.Node) bool {
	mr.opts.Stats.LeafCompares++
	mr.opts.Stats.EffectiveLeafCompares++
	mr.charge(1)
	if mr.opts.Compare != nil {
		return mr.opts.Compare(x.Value(), y.Value()) <= mr.opts.LeafThreshold
	}
	if x.Value() == y.Value() {
		return true
	}
	return mr.tokens(x, true).Within(mr.tokens(y, false), mr.opts.LeafThreshold)
}

// tokens returns the cached tokens of n's value.
func (mr *matcher) tokens(n *tree.Node, inOld bool) *compare.Tokens {
	cache := mr.toks2
	if inOld {
		cache = mr.toks1
	}
	if t, ok := cache[n.ID()]; ok {
		return t
	}
	t := compare.Tokenize(n.Value())
	cache[n.ID()] = &t
	return &t
}

// equalLeaves is the leaf equality of §5.2: same label and
// compare(v(x), v(y)) ≤ f.
func (mr *matcher) equalLeaves(x, y *tree.Node) bool {
	if x.Label() != y.Label() {
		return false
	}
	return mr.leafValueEqual(x, y)
}

// equalInternal is the internal equality of §5.2: same label and
// |common(x,y)| / max(|x|,|y|) > t, where common(x,y) is the set of
// already-matched leaf pairs contained in x and y respectively.
//
// Nodes that are structurally internal in the schema but currently contain
// no leaves have max(|x|,|y|) = 0; for these the ratio is vacuous and we
// fall back to comparing values like leaves, so that empty containers can
// still be matched.
func (mr *matcher) equalInternal(x, y *tree.Node) bool {
	if x.Label() != y.Label() {
		return false
	}
	nx, ny := mr.idx1.NumLeaves(x), mr.idx2.NumLeaves(y)
	maxLeaves := nx
	if ny > maxLeaves {
		maxLeaves = ny
	}
	if maxLeaves == 0 {
		return mr.leafValueEqual(x, y)
	}
	return float64(mr.common(x, y))/float64(maxLeaves) > mr.opts.InternalThreshold
}

// common counts matched leaf pairs (w, z) with w contained in x and z
// contained in y: one pass over the Euler index's cached leaf span of x,
// with an O(1) interval containment test per matched leaf — O(|x|) total,
// versus the O(|x|·depth) ancestor climb of the naive formulation. In the
// r2 work measure each leaf costs one partner lookup plus, when a partner
// exists, one containment check.
func (mr *matcher) common(x, y *tree.Node) (count int) {
	yIn, yOut, ok := mr.idx2.Interval(y.ID())
	if !ok {
		return 0
	}
	var charged int64
	for _, w := range mr.idx1.LeavesUnder(x) {
		charged++
		zID, matched := mr.partnerOfOld(w.ID())
		if !matched {
			continue
		}
		charged++
		zIn, zOut, ok := mr.idx2.Interval(zID)
		if ok && yIn < zIn && zOut < yOut {
			count++
		}
	}
	mr.opts.Stats.PartnerChecks += charged
	mr.charge(charged)
	return count
}

// equal dispatches to the leaf or internal rule depending on the nodes'
// structural kind. Mixed pairs (a leaf against an internal node) never
// match: a value cannot be compared against descendants. A cancelled
// run refuses every pair, which empties the remaining loops quickly;
// the latched error then aborts the run at the next round boundary.
func (mr *matcher) equal(x, y *tree.Node) bool {
	if mr.cancelled() {
		return false
	}
	switch {
	case x.IsLeaf() && y.IsLeaf():
		return mr.equalLeaves(x, y)
	case !x.IsLeaf() && !y.IsLeaf():
		return mr.equalInternal(x, y)
	default:
		return false
	}
}

// labelRankGroups returns the labels of both trees ordered leaves-first —
// ascending by the maximum height of any node carrying the label — and
// grouped by that rank, labels sorted within a group. Flattened, this is
// the bottom-up label order both Match and FastMatch require: under the
// acyclic-labels condition (§5.1) it is a topological order of the label
// schema, so children's labels are processed before their ancestors' and
// |common| is meaningful when internal nodes are compared. The grouping
// exposes the rank rounds to the parallel scheduler (see parallel.go).
func labelRankGroups(t1, t2 *tree.Tree) [][]tree.Label {
	rank := make(map[tree.Label]int)
	collect := func(t *tree.Tree) {
		var rec func(n *tree.Node) int
		rec = func(n *tree.Node) int {
			h := 0
			for _, c := range n.Children() {
				if ch := rec(c) + 1; ch > h {
					h = ch
				}
			}
			if h > rank[n.Label()] {
				rank[n.Label()] = h
			} else if _, ok := rank[n.Label()]; !ok {
				rank[n.Label()] = h
			}
			return h
		}
		if t.Root() != nil {
			rec(t.Root())
		}
	}
	collect(t1)
	collect(t2)
	labels := make([]tree.Label, 0, len(rank))
	for l := range rank {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if rank[labels[i]] != rank[labels[j]] {
			return rank[labels[i]] < rank[labels[j]]
		}
		return labels[i] < labels[j]
	})
	var groups [][]tree.Label
	for _, l := range labels {
		if n := len(groups); n > 0 && rank[groups[n-1][0]] == rank[l] {
			groups[n-1] = append(groups[n-1], l)
		} else {
			groups = append(groups, []tree.Label{l})
		}
	}
	return groups
}

// CheckAcyclicLabels verifies the acyclic-labels condition of §5.1: there
// is an ordering of labels such that a node's label is always strictly
// below its ancestors' labels. It returns an error naming an offending
// cycle (including the self-loop case of same-label nesting, which the
// paper resolves by merging labels, as LaDiff does for list kinds).
// Violation does not affect the correctness of the matching algorithms,
// only the uniqueness guarantee of Theorem 5.2, so callers may treat the
// error as advisory.
func CheckAcyclicLabels(ts ...*tree.Tree) error {
	// edges[a][b] records that a node labeled a appeared as a child of a
	// node labeled b (a must order below b).
	edges := make(map[tree.Label]map[tree.Label]bool)
	for _, t := range ts {
		if t == nil || t.Root() == nil {
			continue
		}
		t.Walk(func(n *tree.Node) bool {
			if p := n.Parent(); p != nil {
				m := edges[n.Label()]
				if m == nil {
					m = make(map[tree.Label]bool)
					edges[n.Label()] = m
				}
				m[p.Label()] = true
			}
			return true
		})
	}
	// DFS cycle detection over the label graph. path holds the current
	// gray stack so a detected cycle can be reported in full.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[tree.Label]int)
	var path []tree.Label
	var visit func(l tree.Label) error
	visit = func(l tree.Label) error {
		state[l] = gray
		path = append(path, l)
		for next := range edges[l] {
			switch state[next] {
			case gray:
				return fmt.Errorf("match: label schema has a cycle %s (merge these labels, as LaDiff merges list kinds)",
					formatCycle(path, next))
			case white:
				if err := visit(next); err != nil {
					return err
				}
			}
		}
		path = path[:len(path)-1]
		state[l] = black
		return nil
	}
	labels := make([]tree.Label, 0, len(edges))
	for l := range edges {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, l := range labels {
		if edges[l][l] {
			return fmt.Errorf("match: label %q nests within itself (merge the levels or rename)", l)
		}
		if state[l] == white {
			if err := visit(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatCycle renders the portion of the DFS stack from the reentered
// label onward, closing the loop: `"a" → "b" → "a"`.
func formatCycle(path []tree.Label, reentered tree.Label) string {
	start := 0
	for i, l := range path {
		if l == reentered {
			start = i
			break
		}
	}
	var b strings.Builder
	for _, l := range path[start:] {
		fmt.Fprintf(&b, "%q → ", l)
	}
	fmt.Fprintf(&b, "%q", reentered)
	return b.String()
}

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
	// in its token form: each node's value is split into words once and
	// the words are reused across every pairwise comparison, with the
	// LCS search capped at the leaf threshold
	// (compare.WordSliceLCSWithin).
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
	// 1 forces fully sequential rounds. Results (and the logical r1/r2
	// counters) are bit-identical at every setting; only the effective
	// work counters and wall-clock vary.
	Parallelism int
	// DisableMemo turns off the pair-equality memo layer, forcing every
	// logical comparison to recompute. The matching and the logical
	// r1/r2 counters are identical either way; the knob exists so tests
	// and benchmarks can verify and measure exactly that.
	DisableMemo bool
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
	if o.LeafThreshold < 0 || o.LeafThreshold > 1 {
		return o, fmt.Errorf("match: leaf threshold f=%v outside [0,1]", o.LeafThreshold)
	}
	if o.InternalThreshold < 0.5 || o.InternalThreshold > 1 {
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
// engine's shortcuts. The memo layer and the Euler interval index let the
// engine answer many of those comparisons without redoing the work; the
// Effective* counters record the work that actually ran, and the memo-hit
// counters the answers served from cache. Logical counters are identical
// across memoized/unmemoized and sequential/parallel runs; effective
// counters are where the savings show.
type Stats struct {
	// LeafCompares is r1: how many times the compare function logically
	// ran (leaf-pair and empty-container value comparisons).
	LeafCompares int64
	// PartnerChecks is r2: how many containment/partner lookups the
	// internal-node equality evaluation logically performed.
	PartnerChecks int64
	// EffectiveLeafCompares counts compare-function invocations that
	// actually executed (memo misses). LeafCompares −
	// EffectiveLeafCompares is the work saved by the leaf memo.
	EffectiveLeafCompares int64
	// EffectivePartnerChecks counts partner lookups and interval tests
	// that actually executed inside common().
	EffectivePartnerChecks int64
	// LeafMemoHits counts leaf-pair equality answers served from the
	// memo without invoking the comparer.
	LeafMemoHits int64
	// InternalMemoHits counts internal-pair equality answers served from
	// the memo without re-running common().
	InternalMemoHits int64
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
	s.EffectivePartnerChecks += other.EffectivePartnerChecks
	s.LeafMemoHits += other.LeafMemoHits
	s.InternalMemoHits += other.InternalMemoHits
	s.PrunedSubtrees += other.PrunedSubtrees
	s.PrunedPairs += other.PrunedPairs
	s.PruneVerifyNodes += other.PruneVerifyNodes
}

// Total returns r1 + r2, the comparison count reported in Figure 13(b).
func (s *Stats) Total() int64 { return s.LeafCompares + s.PartnerChecks }

// EffectiveTotal returns the comparisons that actually executed after
// memoization — the engine-level counterpart of Total.
func (s *Stats) EffectiveTotal() int64 {
	return s.EffectiveLeafCompares + s.EffectivePartnerChecks
}

// pairKey identifies one (old node, new node) comparison in the memo
// maps.
type pairKey struct {
	old, new tree.NodeID
}

// internalMemoEntry caches one internal-equality evaluation. The entry
// is valid only while the leaf matching is unchanged (epoch equality):
// common() depends on which leaves are matched, so any leaf pair added
// or removed invalidates it. charged replays the logical r2 cost on a
// hit, keeping the logical counters identical to an unmemoized run.
type internalMemoEntry struct {
	result  bool
	charged int64
	epoch   int64
}

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
	// words1/words2 cache compare.Words(value) per node per tree; the
	// token path runs only when Options.Compare is nil.
	words1, words2 map[tree.NodeID][]string
	// leafMemo caches value-rule equality per pair. Value equality
	// depends only on the two values and the thresholds, never on the
	// matching, so entries stay valid for the whole run.
	leafMemo map[pairKey]bool
	// internalMemo caches internal-rule equality per pair, valid while
	// leafEpoch is unchanged.
	internalMemo map[pairKey]internalMemoEntry
	// leafEpoch counts leaf-pair additions and removals; bumping it
	// invalidates internalMemo wholesale.
	leafEpoch int64
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
		leafMemo:     make(map[pairKey]bool),
		internalMemo: make(map[pairKey]internalMemoEntry),
	}
	if opts.Compare == nil {
		// The token path splits the value of nearly every leaf once.
		mr.words1 = make(map[tree.NodeID][]string, mr.idx1.NumLeaves(t1.Root()))
		mr.words2 = make(map[tree.NodeID][]string, mr.idx2.NumLeaves(t2.Root()))
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
// callers check both sides unmatched first. Adding a leaf pair bumps
// leafEpoch, invalidating the internal-equality memo.
func (mr *matcher) add(x, y *tree.Node) {
	target := mr.m
	if mr.local != nil {
		target = mr.local
	}
	if err := target.Add(x.ID(), y.ID()); err != nil {
		panic(err)
	}
	if x.IsLeaf() {
		mr.leafEpoch++
	}
}

// removeOld removes the pair involving old node x, if any, bumping
// leafEpoch for leaf pairs. Only the post-processing pass removes pairs;
// it never runs forked, so removal always targets the base matching.
func (mr *matcher) removeOld(x tree.NodeID) {
	if n := mr.t1.Node(x); n != nil && n.IsLeaf() {
		mr.leafEpoch++
	}
	mr.m.Remove(x)
}

// valueWithinThreshold evaluates compare(v(x), v(y)) ≤ f: through the
// caller's comparer when one is set, otherwise through the word-LCS
// comparer's token form, which reuses cached words and stops the LCS
// search once the distance exceeds f.
func (mr *matcher) valueWithinThreshold(x, y *tree.Node) bool {
	mr.opts.Stats.EffectiveLeafCompares++
	if mr.opts.Compare != nil {
		return mr.opts.Compare(x.Value(), y.Value()) <= mr.opts.LeafThreshold
	}
	return compare.WordSliceLCSWithin(mr.tokens(x, true), mr.tokens(y, false), mr.opts.LeafThreshold)
}

// tokens returns the cached words of n's value.
func (mr *matcher) tokens(n *tree.Node, inOld bool) []string {
	cache := mr.words2
	if inOld {
		cache = mr.words1
	}
	if w, ok := cache[n.ID()]; ok {
		return w
	}
	w := compare.Words(n.Value())
	cache[n.ID()] = w
	return w
}

// leafValueEqual evaluates the value rule compare(v(x), v(y)) ≤ f,
// charging exactly one logical leaf compare (r1) whether or not the memo
// answers it.
func (mr *matcher) leafValueEqual(x, y *tree.Node) bool {
	mr.opts.Stats.LeafCompares++
	mr.charge(1)
	if mr.opts.DisableMemo {
		return mr.valueWithinThreshold(x, y)
	}
	k := pairKey{old: x.ID(), new: y.ID()}
	if res, ok := mr.leafMemo[k]; ok {
		mr.opts.Stats.LeafMemoHits++
		return res
	}
	res := mr.valueWithinThreshold(x, y)
	mr.leafMemo[k] = res
	return res
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
	k := pairKey{old: x.ID(), new: y.ID()}
	if !mr.opts.DisableMemo {
		if e, ok := mr.internalMemo[k]; ok && e.epoch == mr.leafEpoch {
			mr.opts.Stats.InternalMemoHits++
			mr.opts.Stats.PartnerChecks += e.charged
			mr.charge(e.charged)
			return e.result
		}
	}
	common, charged := mr.common(x, y)
	res := float64(common)/float64(maxLeaves) > mr.opts.InternalThreshold
	if !mr.opts.DisableMemo {
		mr.internalMemo[k] = internalMemoEntry{result: res, charged: charged, epoch: mr.leafEpoch}
	}
	return res
}

// common counts matched leaf pairs (w, z) with w contained in x and z
// contained in y: one pass over the Euler index's cached leaf span of x,
// with an O(1) interval containment test per matched leaf — O(|x|) total,
// versus the O(|x|·depth) ancestor climb of the naive formulation. In the
// r2 work measure each leaf costs one partner lookup plus, when a partner
// exists, one containment check; charged reports that logical cost so
// memo hits can replay it.
func (mr *matcher) common(x, y *tree.Node) (count int, charged int64) {
	yIn, yOut, ok := mr.idx2.Interval(y.ID())
	if !ok {
		return 0, 0
	}
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
	mr.opts.Stats.EffectivePartnerChecks += charged
	mr.charge(charged)
	return count, charged
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

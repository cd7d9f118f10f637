package core

import (
	"context"
	"errors"
	"fmt"

	"ladiff/internal/edit"
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// Matcher selects the Good Matching engine used by Diff. MatcherByName
// maps the wire/flag spellings ("fast", "simple", "zs") back to enum
// values.
type Matcher int

const (
	// FastMatcher is Algorithm FastMatch (Figure 11), the default: a
	// label-chain LCS pre-pass plus quadratic fallback, O((ne+e²)c+2lne).
	FastMatcher Matcher = iota
	// SimpleMatcher is Algorithm Match (Figure 10): full quadratic
	// pairing, O(n²c + mn). Same result under Criterion 3; useful as a
	// baseline and when chains are heavily reordered.
	SimpleMatcher
	// ZSMatcher derives the matching from an optimal Zhang–Shasha edit
	// mapping — the §5 "best matching" route via [Zha95], O(n² log² n)
	// or worse. It ignores the matching criteria (no thresholds), pairs
	// nodes to globally minimize insert/delete/relabel cost, and is the
	// thorough-but-expensive end of the paper's §2 trade-off. Use it on
	// small trees or when Criterion 3 is badly violated.
	ZSMatcher
)

// EngineName returns the matcher's name as spelled in `-engine` flags
// and the server's "matcher" field ("" for an unknown enum value).
func (m Matcher) EngineName() string {
	switch m {
	case FastMatcher:
		return "fast"
	case SimpleMatcher:
		return "simple"
	case ZSMatcher:
		return "zs"
	}
	return ""
}

// MatcherByName maps an engine name, as spelled in `-engine` flags and
// the server's request schema, to its Matcher value. The empty string
// selects the default FastMatcher; "match" is accepted as the paper's
// name for the simple quadratic algorithm.
func MatcherByName(name string) (Matcher, bool) {
	switch name {
	case "", "fast":
		return FastMatcher, true
	case "simple", "match":
		return SimpleMatcher, true
	case "zs":
		return ZSMatcher, true
	}
	return 0, false
}

// EngineNames returns the engine names, sorted — the legal values for
// `-engine` flags and the server's "matcher" field.
func EngineNames() []string { return []string{"fast", "simple", "zs"} }

// Options configures the end-to-end Diff pipeline.
type Options struct {
	// Match configures the matching criteria (comparer, thresholds) and
	// receives work counters.
	Match match.Options
	// Matcher selects between FastMatch (default) and Match.
	Matcher Matcher
	// PostProcess enables the §8 repair pass that fixes sub-optimal
	// matchings produced when Matching Criterion 3 does not hold.
	PostProcess bool
	// Gen configures the edit-script generator; the zero value selects
	// the indexed FindPos path.
	Gen GenOptions
	// Ctx, when non-nil, bounds the whole pipeline: matching and
	// generation poll it periodically and the run aborts with ctx.Err()
	// wrapped once it is cancelled or past its deadline. It is copied
	// into Match.Ctx and Gen.Ctx unless those are already set, so a
	// caller can also bound one phase independently.
	Ctx context.Context
}

// Diff runs the full change-detection pipeline of the paper on old and
// new: Good Matching (§5), optional post-processing (§8), then Algorithm
// EditScript (§4). Neither input tree is modified.
//
// When Options.Match.WorkBudget is set and the selected matcher (Match
// or the Zhang–Shasha route) exhausts it, or the Zhang–Shasha route
// would exceed its table bound, Diff degrades instead of failing: it
// reruns the cheap FastMatch unbudgeted and marks the result Degraded
// with the reason recorded in DegradedReasons. Budget exhaustion under
// FastMatcher itself has no cheaper fallback and surfaces as an
// lderr.ErrDegraded-tagged error.
func Diff(old, new *tree.Tree, opts Options) (_ *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("core", v)
		}
	}()
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, lderr.Canceled(fmt.Errorf("core: diff cancelled: %w", err))
		}
		if opts.Match.Ctx == nil {
			opts.Match.Ctx = opts.Ctx
		}
		if opts.Gen.Ctx == nil {
			opts.Gen.Ctx = opts.Ctx
		}
	}
	// Root-hash short circuit: part of the fingerprint ladder, so it is
	// gated on the same knob as the matcher's pruning pass — the
	// disabled mode must not even compute fingerprints.
	if opts.Match.PruneIdentical {
		if res, ok := ShortCircuitIdentical(opts.Ctx, old, new); ok {
			return res, nil
		}
	}
	m, degradedReasons, err := MatchWithFallback(old, new, opts.Matcher, opts.Match)
	if err != nil {
		return nil, err
	}
	if opts.PostProcess {
		if _, err := match.PostProcess(old, new, m, opts.Match); err != nil {
			return nil, fmt.Errorf("core: post-processing: %w", err)
		}
	}
	res, err := EditScriptWith(old, new, m, opts.Gen)
	if err != nil {
		return nil, err
	}
	if len(degradedReasons) > 0 {
		res.Degraded = true
		res.DegradedReasons = append(degradedReasons, res.DegradedReasons...)
	}
	return res, nil
}

// MatchWithFallback runs the selected matcher with the degradation
// ladder Diff uses: when a budgeted Match or ZSMatcher run exhausts its
// work budget, or a ZSMatcher run would exceed its table bound (an
// lderr.ErrDegraded-tagged failure either way), the matching is
// recomputed with the cheap FastMatch, unbudgeted, and the returned
// reasons slice records the fallback (empty for a clean run). FastMatch
// itself has no cheaper fallback, so its budget exhaustion propagates
// as an error.
//
// When observability is armed and opts.Ctx carries a trace, the run is
// wrapped in a "match" span whose attributes are read from the Stats
// counters after the fact — the instrumentation never touches the
// matching itself, so traced and untraced runs are bit-identical (the
// conformance matrix's obs cells pin this).
func MatchWithFallback(old, new *tree.Tree, matcher Matcher, opts match.Options) (*match.Matching, []string, error) {
	mctx, sp := obs.StartSpan(opts.Ctx, "match")
	if sp == nil {
		return matchWithFallback(old, new, matcher, opts)
	}
	opts.Ctx = mctx
	if opts.Stats == nil {
		opts.Stats = &match.Stats{}
	}
	pre := *opts.Stats
	m, reasons, err := matchWithFallback(old, new, matcher, opts)
	s := *opts.Stats
	sp.Int("r1_leaf_compares", s.LeafCompares-pre.LeafCompares)
	sp.Int("r2_partner_checks", s.PartnerChecks-pre.PartnerChecks)
	if m != nil {
		sp.Int("pairs", int64(m.Len()))
	}
	for _, r := range reasons {
		sp.Str("degraded", r)
	}
	if err != nil {
		sp.Str("error", err.Error())
	}
	sp.End()
	if len(reasons) > 0 {
		obs.MatchFallbacks.Add(1)
	}
	return m, reasons, err
}

func matchWithFallback(old, new *tree.Tree, matcher Matcher, opts match.Options) (*match.Matching, []string, error) {
	var m *match.Matching
	var err error
	switch matcher {
	case FastMatcher:
		m, err = match.FastMatch(old, new, opts)
	case SimpleMatcher:
		m, err = match.Match(old, new, opts)
	case ZSMatcher:
		m, err = match.ZSMatch(old, new, opts)
	default:
		return nil, nil, fmt.Errorf("core: unknown matcher %d", matcher)
	}
	if err == nil {
		return m, nil, nil
	}
	// The fast engine is itself the fallback: its budget exhaustion has
	// nothing cheaper to degrade to and propagates as an error.
	if matcher == FastMatcher || !errors.Is(err, lderr.ErrDegraded) {
		return nil, nil, fmt.Errorf("core: matching: %w", err)
	}
	fallbackOpts := opts
	fallbackOpts.WorkBudget = 0
	m, ferr := match.FastMatch(old, new, fallbackOpts)
	if ferr != nil {
		return nil, nil, fmt.Errorf("core: matching: %w", ferr)
	}
	reason := fmt.Sprintf("match: %s exceeded work budget %d", fallbackReasonName(matcher), opts.WorkBudget)
	if errors.Is(err, match.ErrZSTableBound) {
		reason = err.Error()
	}
	return m, []string{reason + "; fell back to fastmatch"}, nil
}

// fallbackReasonName spells the matcher in degraded-reason strings.
// SimpleMatcher keeps the paper's algorithm name "match", so
// operator-facing reasons stay stable.
func fallbackReasonName(m Matcher) string {
	if m == SimpleMatcher {
		return "match"
	}
	return m.EngineName()
}

// DiffContext is Diff bounded by ctx: the pipeline polls the context
// periodically inside the matching rank loops and the generation scans,
// so a cancelled or expired request stops burning CPU promptly instead
// of running to completion. The returned error wraps ctx.Err(), so
// errors.Is(err, context.DeadlineExceeded) (or Canceled) identifies the
// abort. A nil ctx behaves like Diff.
func DiffContext(ctx context.Context, old, new *tree.Tree, opts Options) (*Result, error) {
	if ctx != nil {
		opts.Ctx = ctx
	}
	return Diff(old, new, opts)
}

// Cost returns the script's cost under the model configured in opts (or
// the unit-cost model), as defined in §3.2.
func (r *Result) Cost(model *edit.CostModel) float64 {
	if model == nil {
		m := edit.UnitCosts()
		model = &m
	}
	return model.Cost(r.Script)
}

// Distances returns the unweighted edit distance d (operation count) and
// the weighted edit distance e (§5.3) of the result's script, measured
// against the old tree.
func (r *Result) Distances() (d, e int, err error) {
	base := r.Old
	if r.RootsWrapped {
		base = r.Old.Clone()
		base.WrapRoot(dummyRootLabel, "")
	}
	d, e, _, err = r.Script.Distances(base)
	return d, e, err
}

// Conforms verifies that the result's script conforms to the matching m
// (§3.1): no operation deletes an old node matched by m, and no inserted
// node occupies the place of a new node matched by m. It also checks that
// the total matching extends m.
func (r *Result) Conforms(m *match.Matching) error {
	for _, op := range r.Script {
		if op.Kind == edit.Delete && m.MatchedOld(op.Node) {
			return fmt.Errorf("core: script deletes matched node %d", op.Node)
		}
	}
	for newID := range r.InsertedNew {
		if m.MatchedNew(newID) {
			return fmt.Errorf("core: script inserts a copy of matched new node %d", newID)
		}
	}
	if !r.Total.Contains(m) {
		return fmt.Errorf("core: total matching does not extend the input matching")
	}
	return nil
}

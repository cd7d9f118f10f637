package ladiff

import (
	"context"

	"ladiff/internal/compare"
	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/edit"
	"ladiff/internal/htmldoc"
	"ladiff/internal/jsondoc"
	"ladiff/internal/latex"
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
	"ladiff/internal/xmldoc"
	"ladiff/internal/zs"
)

// Error taxonomy. Every failure surfaced by this package's entry points
// is classified into one of these kinds; test with errors.Is. ErrorKind
// classifies an arbitrary error (nil for unclassified).
var (
	// ErrParse: an input document failed to parse (caller's data).
	ErrParse = lderr.ErrParse
	// ErrLimit: an input exceeded a configured size/depth/node limit.
	ErrLimit = lderr.ErrLimit
	// ErrCanceled: the run's context was cancelled or timed out.
	ErrCanceled = lderr.ErrCanceled
	// ErrDegraded: a work budget was exhausted with no cheaper fallback
	// remaining (exhaustion that could fall back surfaces as a Degraded
	// result, not an error).
	ErrDegraded = lderr.ErrDegraded
	// ErrInternal: a broken invariant — a recovered panic or a failed
	// self-check. Never the caller's fault.
	ErrInternal = lderr.ErrInternal
)

// ErrorKind classifies err into one of the Err* sentinels above, or nil
// when the error carries no classification (including err == nil).
func ErrorKind(err error) error { return lderr.KindOf(err) }

// ParseLimits bounds what a parser may build; the zero value is
// unlimited. MaxBytes applies to the raw input; MaxNodes and MaxDepth
// are enforced while the tree is built, so pathological inputs abort at
// the limit instead of materializing first. Violations are
// ErrLimit-tagged.
type ParseLimits = tree.Limits

// Core data types, re-exported from the implementation packages so the
// whole API is reachable through this package.
type (
	// Tree is a rooted, ordered, labeled, valued tree (§3.1).
	Tree = tree.Tree
	// Node is a single tree node.
	Node = tree.Node
	// NodeID identifies a node within one tree.
	NodeID = tree.NodeID
	// Label is a node label (e.g. "sentence", "paragraph").
	Label = tree.Label

	// Op is one edit operation: insert, delete, update, or move (§3.2).
	Op = edit.Op
	// Script is a sequence of edit operations.
	Script = edit.Script
	// CostModel prices edit operations (§3.2).
	CostModel = edit.CostModel

	// Matching is a partial one-to-one node correspondence (§3.1).
	Matching = match.Matching
	// MatchOptions configures the Good Matching criteria (§5) and the
	// matching run: comparer, keys, pruning, context and work budget.
	MatchOptions = match.Options
	// MatchStats carries the §8 work counters: LeafCompares/
	// PartnerChecks are the logical r1/r2 of Figure 13(b), invariant
	// across engine configurations; EffectiveLeafCompares counts the
	// comparer runs, which always equal LeafCompares.
	MatchStats = match.Stats

	// WorkStats counts Algorithm EditScript's abstract work (Result.Work):
	// Visits/AlignEquals/PosScans/Ops are the logical O(ND) measure,
	// invariant across generator configurations; the Effective* fields
	// count the position-index operations that actually executed.
	WorkStats = core.WorkStats

	// Result is the outcome of Diff: script, matchings, transformed tree.
	Result = core.Result
	// Options configures the Diff pipeline.
	Options = core.Options
	// GenOptions configures the edit-script generator (Options.Gen); the
	// zero value uses the indexed FindPos path.
	GenOptions = core.GenOptions

	// DeltaTree is the annotated-overlay representation of a delta (§6).
	DeltaTree = delta.Tree
	// DeltaNode is one node of a delta tree.
	DeltaNode = delta.Node

	// CompareFunc measures leaf-value distance in [0,2].
	CompareFunc = compare.Func
)

// Matcher selection for Options.Matcher.
const (
	// FastMatcher is Algorithm FastMatch (Figure 11), the default.
	FastMatcher = core.FastMatcher
	// SimpleMatcher is Algorithm Match (Figure 10).
	SimpleMatcher = core.SimpleMatcher
	// ZSMatcher derives the matching from an optimal Zhang–Shasha
	// mapping — the §5 "best matching" route, for small trees.
	ZSMatcher = core.ZSMatcher
)

// MatcherByName maps an engine name as spelled in -engine flags and the
// server's "matcher" field ("fast", "simple", "zs") to its Matcher
// value; the empty string selects the default FastMatcher.
func MatcherByName(name string) (Matcher, bool) { return core.MatcherByName(name) }

// EngineNames returns the matching engine names, sorted — the legal
// values for MatcherByName.
func EngineNames() []string { return core.EngineNames() }

// Delta-tree annotations.
const (
	DeltaIdentity   = delta.Identity
	DeltaUpdated    = delta.Updated
	DeltaInserted   = delta.Inserted
	DeltaDeleted    = delta.Deleted
	DeltaMoveSource = delta.MoveSource
	DeltaMoveDest   = delta.MoveDest
)

// Edit operation kinds.
const (
	OpInsert = edit.Insert
	OpDelete = edit.Delete
	OpUpdate = edit.Update
	OpMove   = edit.Move
)

// Diff runs the paper's full change-detection pipeline on the old and new
// trees: Good Matching (§5), optional post-processing (§8), and Algorithm
// EditScript (§4). Neither input is modified. The zero Options value uses
// FastMatch with the word-LCS sentence comparer and default thresholds.
func Diff(old, new *Tree, opts Options) (*Result, error) {
	return core.Diff(old, new, opts)
}

// DiffContext is Diff bounded by ctx: matching and edit-script
// generation poll the context periodically (inside the label rank loops
// and the breadth-first generation scan) and abort promptly with
// ctx.Err() wrapped once it is cancelled or past its deadline — the
// entry point for servers that must enforce per-request deadlines
// without leaving a hung diff burning CPU. A nil ctx behaves like Diff.
func DiffContext(ctx context.Context, old, new *Tree, opts Options) (*Result, error) {
	return core.DiffContext(ctx, old, new, opts)
}

// ComputeEditScript runs Algorithm EditScript (Figure 8) directly with a
// caller-supplied matching — the right entry point when the data carries
// object identifiers and matching is trivial (§1, §5).
func ComputeEditScript(old, new *Tree, m *Matching) (*Result, error) {
	return core.EditScript(old, new, m)
}

// ComputeEditScriptWith is ComputeEditScript with explicit generator
// options — e.g. GenOptions{DisableIndex: true} to force the reference
// linear-scan FindPos for tracing or differential testing.
func ComputeEditScriptWith(old, new *Tree, m *Matching, opts GenOptions) (*Result, error) {
	return core.EditScriptWith(old, new, m, opts)
}

// FindMatching runs Algorithm FastMatch (Figure 11) alone and returns the
// discovered matching.
func FindMatching(old, new *Tree, opts MatchOptions) (*Matching, error) {
	return match.FastMatch(old, new, opts)
}

// Matcher selects the Good Matching algorithm (Options.Matcher,
// FindMatchingFor).
type Matcher = core.Matcher

// FindMatchingFor runs the selected matcher with the same degradation
// ladder Diff uses: a budgeted SimpleMatcher or ZSMatcher run that
// exhausts MatchOptions.WorkBudget, or a ZSMatcher run past its table
// bound, is recomputed with the cheap FastMatch, unbudgeted; the
// returned reasons record the fallback (empty for a clean run).
// FastMatch exhaustion has no cheaper fallback and returns an
// ErrDegraded-tagged error.
func FindMatchingFor(old, new *Tree, matcher Matcher, opts MatchOptions) (*Matching, []string, error) {
	return core.MatchWithFallback(old, new, matcher, opts)
}

// NewMatching returns an empty matching for callers that construct
// correspondences from their own identifiers.
func NewMatching() *Matching { return match.NewMatching() }

// BuildDelta constructs the delta tree (§6) for a Diff result.
func BuildDelta(res *Result) (*DeltaTree, error) { return delta.Build(res) }

// NewTree returns an empty tree; use (*Tree).SetRoot and
// (*Tree).AppendChild to populate it.
func NewTree() *Tree { return tree.New() }

// NewTreeWithRoot returns a tree whose root has the given label and value.
func NewTreeWithRoot(label Label, value string) *Tree {
	return tree.NewWithRoot(label, value)
}

// ParseTree reads the indented text format produced by (*Tree).String.
func ParseTree(src string) (*Tree, error) { return tree.Parse(src) }

// ParseTreeLimited is ParseTree with ParseLimits enforced during the
// parse. All Parse*Limited variants tag their errors for the taxonomy:
// syntax failures as ErrParse, limit violations as ErrLimit.
func ParseTreeLimited(src string, lim ParseLimits) (*Tree, error) {
	return tree.ParseLimited(src, lim)
}

// ParseLatexLimited is ParseLatex with ParseLimits enforced.
func ParseLatexLimited(src string, lim ParseLimits) (*Tree, error) {
	return latex.ParseLimited(src, lim)
}

// ParseHTMLLimited is ParseHTML with ParseLimits enforced.
func ParseHTMLLimited(src string, lim ParseLimits) (*Tree, error) {
	return htmldoc.ParseLimited(src, lim)
}

// ParseTextLimited is ParseText with ParseLimits enforced (the only way
// a plain-text parse can fail).
func ParseTextLimited(src string, lim ParseLimits) (*Tree, error) {
	return textdoc.ParseLimited(src, lim)
}

// ParseXMLLimited is ParseXML with ParseLimits enforced.
func ParseXMLLimited(src string, lim ParseLimits) (*Tree, error) {
	return xmldoc.ParseLimited(src, lim)
}

// ParseJSONLimited is ParseJSON with ParseLimits enforced.
func ParseJSONLimited(src string, lim ParseLimits) (*Tree, error) {
	return jsondoc.ParseLimited(src, lim)
}

// Isomorphic reports whether two trees are identical up to node
// identifiers (§3.1).
func Isomorphic(a, b *Tree) bool { return tree.Isomorphic(a, b) }

// Fingerprint is a 128-bit Merkle content hash of a subtree: a function
// of the node's label, value, and ordered child fingerprints, and of
// nothing else (not node IDs, not position among siblings). Equal
// subtree content ⇒ equal fingerprints; the converse holds up to hash
// collision, which every consumer in this package re-verifies
// structurally before acting on.
type Fingerprint = tree.Fingerprint

// RootFingerprint returns the Merkle fingerprint of t's whole content,
// computing and caching the per-subtree index on first use (any
// mutation invalidates it). The zero Fingerprint is returned for an
// empty tree.
func RootFingerprint(t *Tree) Fingerprint {
	if t == nil || t.Root() == nil {
		return Fingerprint{}
	}
	return t.Fingerprints().Root()
}

// SubtreeFingerprints returns every node of t paired with the
// fingerprint of the subtree it roots, in preorder — the inspection
// view behind `ladiff -hash -v`.
func SubtreeFingerprints(t *Tree) []NodeFingerprint {
	if t == nil || t.Root() == nil {
		return nil
	}
	ix := t.Fingerprints()
	nodes := t.PreOrder()
	out := make([]NodeFingerprint, len(nodes))
	for i, n := range nodes {
		fp, _ := ix.Of(n.ID())
		out[i] = NodeFingerprint{Node: n, FP: fp}
	}
	return out
}

// NodeFingerprint pairs a node with its subtree fingerprint.
// NodeDepth returns the number of edges from t's root to n — zero for
// the root itself. Exposed for fingerprint-table renderers (`ladiff
// -hash -v`) that indent by depth.
func NodeDepth(n *Node) int { return tree.Depth(n) }

type NodeFingerprint struct {
	Node *Node
	FP   Fingerprint
}

// ShortCircuitIdentical is the root-hash fast path of the fingerprint
// ladder: when old and new carry the same root fingerprint (confirmed
// by a structural walk, so a collision can never slip through), the
// complete empty-diff Result is returned without running matching or
// generation. ok is false when the trees differ; proceed normally.
func ShortCircuitIdentical(ctx context.Context, old, new *Tree) (res *Result, ok bool) {
	return core.ShortCircuitIdentical(ctx, old, new)
}

// ParseLatex parses the LaDiff LaTeX subset (§7) into a document tree.
func ParseLatex(src string) (*Tree, error) { return latex.Parse(src) }

// RenderLatex renders a delta tree as a marked-up LaTeX document
// following the paper's Table 2 conventions.
func RenderLatex(dt *DeltaTree) string { return latex.Render(dt) }

// RenderLatexPlain renders a document tree as LaTeX without markup.
func RenderLatexPlain(t *Tree) string { return latex.RenderPlain(t) }

// ParseHTML parses a subset of HTML into a document tree — the paper's
// web change-monitoring scenario (§1).
func ParseHTML(src string) (*Tree, error) { return htmldoc.Parse(src) }

// RenderHTML renders a document tree as simple HTML.
func RenderHTML(t *Tree) string { return htmldoc.Render(t) }

// ParseText parses plain text (blank-line paragraphs of sentences) into a
// document tree.
func ParseText(src string) *Tree { return textdoc.Parse(src) }

// RenderText renders a document tree as plain text.
func RenderText(t *Tree) string { return textdoc.Render(t) }

// ParseXML parses arbitrary XML into a document tree (elements →
// labeled nodes, attributes folded into values, character data as
// "#text" leaves) — the §9 SGML-family extension.
func ParseXML(src string) (*Tree, error) { return xmldoc.Parse(src) }

// RenderXML renders a tree back as indented XML.
func RenderXML(t *Tree) string { return xmldoc.Render(t) }

// XMLAttrKey keys XML elements by an attribute (commonly "id") for the
// keyed matching fast path: set MatchOptions.Key to the result.
func XMLAttrKey(attr string) KeyFunc { return xmldoc.AttrKey(attr) }

// ParseJSON parses a JSON document into a tree (objects/arrays/members/
// scalars), with object members sorted by name so member order never
// registers as change. Pair with CompareLevenshtein for scalar values.
func ParseJSON(src string) (*Tree, error) { return jsondoc.Parse(src) }

// RenderJSON renders a jsondoc tree back to compact JSON.
func RenderJSON(t *Tree) (string, error) { return jsondoc.Render(t) }

// JSONMemberKey keys object members by name for the keyed fast path.
var JSONMemberKey KeyFunc = jsondoc.MemberName

// RenderHTMLDelta renders a delta tree as an HTML document with the
// changes marked (<ins>/<del>/<em>, move anchors) — the §9 plan of a
// diff-aware web browser.
func RenderHTMLDelta(dt *DeltaTree) string { return htmldoc.RenderDelta(dt) }

// RenderTextDelta renders a delta tree as an annotated plain-text change
// report (+/-/~ markers, <N/>N move pairs).
func RenderTextDelta(dt *DeltaTree) string { return textdoc.RenderDelta(dt) }

// UnitCosts is the paper's simple cost model: unit-cost insert, delete
// and move; updates priced by the word-LCS comparer (§3.2).
func UnitCosts() CostModel { return edit.UnitCosts() }

// Leaf-value comparers (§7). WordLCS is LaDiff's sentence comparer and
// the default used by Diff.
var (
	CompareExact       CompareFunc = compare.Exact
	CompareWordLCS     CompareFunc = compare.WordLCS
	CompareFoldedWords CompareFunc = compare.FoldedWordLCS
	CompareLevenshtein CompareFunc = compare.Levenshtein
	CompareTokenSet    CompareFunc = compare.TokenSet
)

// WordDiff computes a word-level diff of two values (common / deleted /
// inserted words), the grain renderers use to highlight what changed
// inside an updated sentence.
func WordDiff(old, new string) []compare.WordOp { return compare.WordDiff(old, new) }

// WordOp is one word of a WordDiff, classified by WordOpKind.
type WordOp = compare.WordOp

// Word-diff classifications.
const (
	WordEqual  = compare.WordEqual
	WordDelete = compare.WordDelete
	WordInsert = compare.WordInsert
)

// CompareShingle returns a k-word-shingle Jaccard comparer: order-aware
// at granularity k but robust to block moves within long values.
func CompareShingle(k int) CompareFunc { return compare.Shingle(k) }

// KeyFunc extracts application keys from nodes; set MatchOptions.Key to
// enable the §1 keyed fast path in the matchers.
type KeyFunc = match.KeyFunc

// ZhangShashaDistance computes the optimal [ZS89] tree edit distance
// under unit costs — the expensive baseline the paper compares against
// (§2). Use it to quantify the optimality gap of a conforming script on
// small trees.
func ZhangShashaDistance(old, new *Tree) (float64, error) {
	return zs.UnitDistance(old, new)
}

// OptimalityLevel is the paper's proposed parameterized algorithm A(k)
// (§9): higher levels tolerate worse inputs at higher cost. See
// DiffAtLevel.
type OptimalityLevel = core.OptimalityLevel

// Optimality levels for DiffAtLevel, cheapest first.
const (
	LevelFast     = core.LevelFast     // A(0): FastMatch
	LevelRepair   = core.LevelRepair   // A(1): FastMatch + §8 repair
	LevelThorough = core.LevelThorough // A(2): quadratic Match + repair
	LevelOptimal  = core.LevelOptimal  // A(3): Zhang–Shasha best matching
)

// DiffAtLevel runs the pipeline at the requested optimality level.
func DiffAtLevel(old, new *Tree, k OptimalityLevel, mopts MatchOptions) (*Result, error) {
	return core.DiffAtLevel(old, new, k, mopts)
}

// InvertScript computes the inverse of a script relative to the tree it
// applies to, making deltas bidirectional (apply to go forward, apply the
// inverse to go back).
func InvertScript(s Script, base *Tree) (Script, error) { return edit.Invert(s, base) }

// DeltaQuery selects annotated nodes from a delta tree by path pattern
// and change kind, e.g. "**/sentence[mrk]" for every moved sentence's
// destination. See internal/delta.ParseQuery for the full syntax.
func DeltaQuery(dt *DeltaTree, expr string) ([]DeltaHit, error) { return dt.SelectExpr(expr) }

// DeltaHit is one query result: the node plus its label path.
type DeltaHit = delta.Hit

// RuleSet is a small active-rule engine over delta trees (§9's "active
// rule languages"): register (query, action) pairs with On, then Apply
// the set to the delta tree of each new version to get change-driven
// triggers.
type RuleSet = delta.RuleSet

// CheckAcyclicLabels verifies the §5.1 acyclic-labels condition under
// which Theorem 5.2 guarantees a unique maximal matching. The error is
// advisory: matching remains correct without it, only the uniqueness
// guarantee is lost.
func CheckAcyclicLabels(trees ...*Tree) error {
	return match.CheckAcyclicLabels(trees...)
}

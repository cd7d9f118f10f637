// Package core implements the Minimum Conforming Edit Script algorithm of
// Chawathe et al. (SIGMOD 1996, §4) — the paper's primary contribution —
// and the end-to-end change-detection pipeline that combines it with the
// Good Matching algorithms of §5.
//
// Algorithm EditScript (Figure 8) takes the old tree T1, the new tree T2,
// and a partial matching M, and produces a minimum-cost edit script
// conforming to M in one breadth-first scan of T2 (combining the update,
// align, insert and move phases) followed by a post-order delete scan of
// T1. Running time is O(ND) where N is the total node count and D the
// number of misaligned nodes (Theorem C.2).
//
// Two published ambiguities in Figure 8/9 are resolved the way every
// faithful implementation resolves them (they are required for the
// isomorphism guarantee to hold and are consistent with the paper's
// correctness proof):
//
//   - nodes are marked "in order" immediately after they are inserted or
//     moved into place, so later FindPos calls can anchor on them;
//   - FindPos returns 1 when x has no left sibling marked "in order"
//     (Figure 9 step 2 literally says "x is the leftmost child ... marked
//     in order", but x is out of order at that point), and otherwise
//     places x directly after the partner u of the rightmost in-order
//     left sibling — the returned k is the concrete child index of the
//     working tree at application time, so replaying the script on a
//     fresh copy of T1 reproduces the transformation exactly.
package core

import (
	"context"
	"errors"
	"fmt"

	"ladiff/internal/edit"
	"ladiff/internal/fault"
	"ladiff/internal/lcs"
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// Result is the outcome of EditScript or Diff.
type Result struct {
	// Script transforms Old into a tree isomorphic to New. When
	// RootsWrapped is false (the overwhelmingly common case: the roots
	// were matched) the script applies directly to a clone of Old; see
	// ApplyToOld.
	Script edit.Script
	// Matching is the input partial matching M between Old and New
	// (for Diff: the matching the matcher found).
	Matching *match.Matching
	// Total is the extended total matching M' ⊇ M between the nodes of
	// the transformed working tree and New. Old nodes keep their IDs in
	// the working tree, so Total also answers queries about Old nodes
	// that were not deleted.
	Total *match.Matching
	// Old and New are the input trees, unmodified.
	Old, New *tree.Tree
	// Transformed is the working copy of Old after the script has been
	// applied; it is isomorphic to New — or, when RootsWrapped is set, to
	// New wrapped in the same dummy root.
	Transformed *tree.Tree
	// RootsWrapped records that the roots of Old and New were unmatched
	// in M, so the algorithm wrapped both trees in dummy roots (§4.1,
	// insert phase) and the script is expressed against the wrapped
	// trees. WrappedOldRoot/WrappedNewRoot give the dummy IDs.
	RootsWrapped   bool
	WrappedOldRoot tree.NodeID
	WrappedNewRoot tree.NodeID

	// Degraded records that the pipeline completed only by falling back
	// to a cheaper mode: FastMatch after a budgeted matcher exhausted its
	// work budget, or the reference scan generator after the indexed
	// generation path failed its self-check. The script is still verified
	// isomorphic to New; DegradedReasons lists what was given up.
	Degraded        bool
	DegradedReasons []string

	// Work counts the abstract operations Algorithm EditScript performed
	// — the machine-independent measure behind the O(ND) analysis
	// (Theorem C.2), analogous to the §8 comparison counters for the
	// matchers.
	Work WorkStats

	// Bookkeeping for delta-tree construction and reporting. All sets are
	// keyed by the IDs meaningful to their tree: *Old sets by Old-tree
	// (= working tree) IDs, *New sets by New-tree IDs.
	InsertedNew map[tree.NodeID]bool   // New nodes with no partner in M
	UpdatedOld  map[tree.NodeID]string // old node ID -> new value
	MovedOld    map[tree.NodeID]bool   // old nodes that were MOV'ed
	DeletedOld  map[tree.NodeID]bool   // old nodes that were DEL'ed
}

// WorkStats counts the abstract work of one EditScript run. Visits is
// the O(N) term (every node of both trees is touched a constant number
// of times); AlignEquals and PosScans make up the O(ND) term: equality
// probes inside AlignChildren's LCS calls and sibling-scan steps inside
// FindPos, both proportional to the local misalignment.
type WorkStats struct {
	// Visits counts nodes processed by the breadth-first and post-order
	// scans (both trees).
	Visits int64
	// AlignEquals counts equality probes made by AlignChildren's LCS.
	AlignEquals int64
	// PosScans counts sibling-scan steps inside FindPos.
	PosScans int64
	// Ops is the emitted script length.
	Ops int64

	// EffectivePosScans counts the elementary position-index operations
	// actually executed by FindPos: Fenwick and order-statistic steps on
	// the indexed path (O(log fanout) per call), or one per sibling
	// visited on the scan path, where it equals PosScans. PosScans keeps
	// reporting the paper's logical scan cost either way, mirroring the
	// Comparisons/EffectiveComparisons convention of match.Stats.
	EffectivePosScans int64
	// EffectiveAlignEquals counts equality probes actually executed by
	// AlignChildren's LCS. The probes themselves are not memoized, so it
	// currently equals AlignEquals; it exists so the executed-work
	// surface stays uniform across counters.
	EffectiveAlignEquals int64
}

// Total returns the sum of the logical work counters — the paper's
// O(ND) measure. Effective* counters are excluded: they describe
// executed machine work, not the algorithm's abstract cost.
func (w WorkStats) Total() int64 { return w.Visits + w.AlignEquals + w.PosScans + w.Ops }

// ApplyToOld replays the script on a fresh clone of Old and returns the
// transformed tree, verifying isomorphism with New. It wraps the clone in
// a dummy root first when RootsWrapped is set.
func (r *Result) ApplyToOld() (*tree.Tree, error) {
	work := r.Old.Clone()
	if r.RootsWrapped {
		if n := work.WrapRoot(dummyRootLabel, ""); n.ID() != r.WrappedOldRoot {
			return nil, fmt.Errorf("core: dummy root got ID %d, script expects %d", n.ID(), r.WrappedOldRoot)
		}
	}
	if err := r.Script.Apply(work); err != nil {
		return nil, err
	}
	ref := r.New
	if r.RootsWrapped {
		ref = r.New.Clone()
		ref.WrapRoot(dummyRootLabel, "")
	}
	if !tree.Isomorphic(work, ref) {
		return nil, errors.New("core: replayed script does not reproduce the new tree")
	}
	return work, nil
}

// dummyRootLabel is the label of the dummy roots added when the input
// roots are unmatched. The label is deliberately improbable in user data.
const dummyRootLabel tree.Label = "\x00dummy-root"

// GenOptions configures the edit-script generator. The zero value is
// the production configuration: indexed FindPos.
type GenOptions struct {
	// DisableIndex forces the reference linear-scan FindPos of Figure 9
	// instead of the order-statistic index. The emitted script and the
	// logical WorkStats are identical either way (the differential tests
	// pin this); only Effective* counters and wall-clock time differ.
	// Useful as a differential oracle and for paper-faithful tracing.
	DisableIndex bool
	// Ctx, when non-nil, bounds the generation run: the breadth-first
	// and post-order scans poll it every ctxPollStride visits and abort
	// with ctx.Err() wrapped once it is cancelled or past its deadline.
	// Cancellation never yields a partial result.
	Ctx context.Context
}

// ctxPollStride is how many scan visits elapse between context polls in
// the generator's loops; each visit does real work (alignment, index
// maintenance), so polling every 64th keeps cancellation latency low
// without measurable cost on the uncancelled path.
const ctxPollStride = 64

// EditScript runs Algorithm EditScript (Figure 8): it computes a
// minimum-cost edit script that conforms to the matching m and transforms
// t1 into a tree isomorphic to t2. Neither input tree is modified. The
// matching must be a valid partial matching between t1 and t2 (see
// (*match.Matching).Validate); conformance means the script never deletes
// a t1-matched node and never re-creates a t2-matched node by insertion.
func EditScript(t1, t2 *tree.Tree, m *match.Matching) (*Result, error) {
	return EditScriptWith(t1, t2, m, GenOptions{})
}

// EditScriptWith is EditScript with explicit generator options.
//
// The indexed FindPos path is self-checking: a failure there (a broken
// index invariant, a panic, an injected fault) is not fatal — the run is
// retried once on the reference scan generator of Figure 9, and the
// retried result is marked Degraded. Cancellation is never retried.
func EditScriptWith(t1, t2 *tree.Tree, m *match.Matching, opts GenOptions) (*Result, error) {
	gctx, sp := obs.StartSpan(opts.Ctx, "generate")
	if sp != nil {
		opts.Ctx = gctx
	}
	res, err := editScriptDegradable(t1, t2, m, opts)
	if sp != nil {
		if res != nil {
			w := res.Work
			sp.Int("visits", w.Visits)
			sp.Int("align_equals", w.AlignEquals)
			sp.Int("pos_scans", w.PosScans)
			sp.Int("ops", w.Ops)
			sp.Int("effective_pos_scans", w.EffectivePosScans)
			sp.Int("effective_align_equals", w.EffectiveAlignEquals)
			for _, r := range res.DegradedReasons {
				sp.Str("degraded", r)
			}
		}
		if err != nil {
			sp.Str("error", err.Error())
		}
		sp.End()
	}
	return res, err
}

// editScriptDegradable is EditScriptWith minus the tracing shell: the
// run plus its indexed-path degradation ladder.
func editScriptDegradable(t1, t2 *tree.Tree, m *match.Matching, opts GenOptions) (*Result, error) {
	if t1 == nil || t2 == nil || t1.Root() == nil || t2.Root() == nil {
		return nil, errors.New("core: EditScript requires two non-empty trees")
	}
	if err := fault.Check(fault.Generate); err != nil {
		return nil, lderr.TagAs(lderr.ErrInternal, err)
	}
	res, err := editScriptRun(t1, t2, m, opts)
	if err == nil || opts.DisableIndex || lderr.KindOf(err) == lderr.ErrCanceled {
		return res, err
	}
	// Indexed-path failure: degrade to the scan generator. If the retry
	// fails too, the failure is real — report the original error.
	if obs.Enabled() {
		obs.GenIndexFallbacks.Add(1)
	}
	scanOpts := opts
	scanOpts.DisableIndex = true
	res, retryErr := editScriptRun(t1, t2, m, scanOpts)
	if retryErr != nil {
		return nil, err
	}
	res.Degraded = true
	res.DegradedReasons = append(res.DegradedReasons,
		fmt.Sprintf("gen: indexed path failed (%v); fell back to scan generator", err))
	return res, nil
}

// editScriptRun is one EditScript attempt; panics become
// lderr.ErrInternal so EditScriptWith can decide whether to degrade.
func editScriptRun(t1, t2 *tree.Tree, m *match.Matching, opts GenOptions) (_ *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("gen", v)
		}
	}()
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: edit-script generation cancelled: %w", err)
		}
	}
	if m == nil {
		m = match.NewMatching()
	}

	g := &generator{
		work: t1.Clone(),
		new:  t2,
		mm:   m.Clone(),
		opts: opts,
		result: &Result{
			Matching:    m,
			Old:         t1,
			New:         t2,
			InsertedNew: make(map[tree.NodeID]bool),
			UpdatedOld:  make(map[tree.NodeID]string),
			MovedOld:    make(map[tree.NodeID]bool),
			DeletedOld:  make(map[tree.NodeID]bool),
		},
	}

	// Insert phase preamble (§4.1): if the roots are not matched, wrap
	// both trees in matched dummy roots so that every real node has a
	// parent whose partner is defined.
	oldRoot, newRoot := g.work.Root(), t2.Root()
	rootsMatched := g.mm.Has(oldRoot.ID(), newRoot.ID())
	if !rootsMatched {
		g.new = t2.Clone()
		d1 := g.work.WrapRoot(dummyRootLabel, "")
		d2 := g.new.WrapRoot(dummyRootLabel, "")
		if err := g.mm.Add(d1.ID(), d2.ID()); err != nil {
			return nil, fmt.Errorf("core: wrapping roots: %w", err)
		}
		g.result.RootsWrapped = true
		g.result.WrappedOldRoot = d1.ID()
		g.result.WrappedNewRoot = d2.ID()
	}
	g.inOrder2 = make([]bool, g.new.IDBound())

	// The generation index is built after wrapping so that childPos
	// covers the dummy roots; the working tree's PosIndex is maintained
	// through every emitted operation from here on.
	if !opts.DisableIndex {
		if err := fault.Check(fault.GenIndex); err != nil {
			return nil, lderr.TagAs(lderr.ErrInternal, err)
		}
		g.gi = newGenIndex(g.new, g.work, g.inOrder2)
	}

	if err := g.run(); err != nil {
		return nil, err
	}
	if g.gi != nil {
		g.result.Work.EffectivePosScans += g.gi.steps + g.gi.pos.Steps()
	}

	g.result.Script = g.script
	g.result.Total = g.mm
	g.result.Transformed = g.work
	if !tree.Isomorphic(g.work, g.new) {
		return nil, lderr.Internal(errors.New("core: internal error: transformed tree not isomorphic to new tree"))
	}
	if err := g.work.Validate(); err != nil {
		return nil, lderr.Internal(fmt.Errorf("core: internal error: %w", err))
	}
	return g.result, nil
}

// generator holds the mutable state of one EditScript run.
type generator struct {
	work *tree.Tree // evolving copy of T1 (old IDs preserved)
	new  *tree.Tree // T2 (or a wrapped clone of it)
	mm   *match.Matching
	opts GenOptions
	// gi is the edit-script generation index (genindex.go); nil when
	// opts.DisableIndex selects the reference scan path.
	gi *genIndex
	// inOrder2 marks new-tree nodes "in order", indexed by node ID;
	// AlignChildren resets the marks for each sibling group before
	// aligning it (Figure 9). FindPos reads only the new tree's marks, so
	// the working tree's are not kept.
	inOrder2 []bool
	script   edit.Script
	result   *Result
	nextID   tree.NodeID
	// s1 and s2 are AlignChildren's S1 and S2, reused from one sibling
	// group to the next.
	s1, s2 []*tree.Node
}

// run executes the combined breadth-first phase and the delete phase.
// Each phase carries its own span when the run is traced; attributes
// are the per-kind operation counts, read after the phase completes.
func (g *generator) run() error {
	if err := g.bfsPhase(); err != nil {
		return err
	}
	return g.deletePhase()
}

// bfsPhase is Figure 8 step 2: update, align, insert, move, in one
// breadth-first scan of the new tree.
func (g *generator) bfsPhase() (err error) {
	_, sp := obs.StartSpan(g.opts.Ctx, "update-align-insert-move")
	defer func() {
		sp.Int("updates", int64(len(g.result.UpdatedOld)))
		sp.Int("inserts", int64(len(g.result.InsertedNew)))
		sp.Int("moves", int64(len(g.result.MovedOld)))
		if err != nil {
			sp.Str("error", err.Error())
		}
		sp.End()
	}()
	for _, x := range g.new.BreadthFirst() {
		g.result.Work.Visits++
		if err := g.pollCtx(); err != nil {
			return err
		}
		var w *tree.Node // partner of x in the working tree
		wID, matched := g.mm.ToOld(x.ID())
		switch {
		case !matched:
			// Step 2b: insert. x's parent is already matched (BFS order
			// plus dummy-root wrapping guarantee it).
			y := x.Parent()
			if y == nil {
				return errors.New("core: unmatched root after wrapping (internal error)")
			}
			zID, ok := g.mm.ToOld(y.ID())
			if !ok {
				return fmt.Errorf("core: parent %v of inserted node %v has no partner", y, x)
			}
			z := g.work.Node(zID)
			k, err := g.findPos(x)
			if err != nil {
				return err
			}
			op := edit.Ins(g.nextWorkID(), x.Label(), x.Value(), z.ID(), k)
			if err := g.emit(op); err != nil {
				return err
			}
			w = g.work.Node(op.Node)
			if err := g.mm.Add(w.ID(), x.ID()); err != nil {
				return fmt.Errorf("core: matching inserted node: %w", err)
			}
			g.result.InsertedNew[x.ID()] = true
			g.markInOrder(x)

		case x.Parent() == nil:
			// The matched root: it cannot move, but — when the input
			// roots were matched directly and no dummy was added — its
			// value may still need an update. (Figure 8 step 2c skips
			// roots entirely because the paper assumes wrapped roots,
			// under which the real root is an ordinary child.)
			w = g.work.Node(wID)
			if w.Value() != x.Value() {
				old := w.Value()
				if err := g.emit(edit.Upd(w.ID(), old, x.Value())); err != nil {
					return err
				}
				g.result.UpdatedOld[w.ID()] = x.Value()
			}

		default:
			// Step 2c: x has a partner w.
			w = g.work.Node(wID)
			y := x.Parent()
			v := w.Parent()
			// Step 2c-ii: update.
			if w.Value() != x.Value() {
				old := w.Value()
				if err := g.emit(edit.Upd(w.ID(), old, x.Value())); err != nil {
					return err
				}
				g.result.UpdatedOld[w.ID()] = x.Value()
			}
			// Step 2c-iii: move, when the parents are not partners.
			if v == nil || !g.mm.Has(v.ID(), y.ID()) {
				zID, ok := g.mm.ToOld(y.ID())
				if !ok {
					return fmt.Errorf("core: parent %v of moved node %v has no partner", y, x)
				}
				z := g.work.Node(zID)
				k, err := g.findPos(x)
				if err != nil {
					return err
				}
				if err := g.emit(edit.Mov(w.ID(), z.ID(), k)); err != nil {
					return err
				}
				g.result.MovedOld[w.ID()] = true
			}
			g.markInOrder(x)
		}
		// Step 2d: align the children of w and x.
		if err := g.alignChildren(w, x); err != nil {
			return err
		}
	}
	return nil
}

// deletePhase is Figure 8 step 3: delete, in a post-order scan of the
// working tree. The snapshot is taken up front; every unmatched
// node's descendants are also unmatched by this point, so each node
// is a leaf by the time its DEL is emitted.
func (g *generator) deletePhase() (err error) {
	_, sp := obs.StartSpan(g.opts.Ctx, "delete")
	defer func() {
		sp.Int("deletes", int64(len(g.result.DeletedOld)))
		if err != nil {
			sp.Str("error", err.Error())
		}
		sp.End()
	}()
	for _, w := range g.work.PostOrder() {
		g.result.Work.Visits++
		if err := g.pollCtx(); err != nil {
			return err
		}
		if !g.mm.MatchedOld(w.ID()) {
			if err := g.emit(edit.Del(w.ID())); err != nil {
				return err
			}
			g.result.DeletedOld[w.ID()] = true
		}
	}
	return nil
}

// pollCtx consults GenOptions.Ctx every ctxPollStride scan visits and
// returns its error (wrapped) once the run is cancelled.
func (g *generator) pollCtx() error {
	if g.opts.Ctx == nil || g.result.Work.Visits%ctxPollStride != 0 {
		return nil
	}
	if err := g.opts.Ctx.Err(); err != nil {
		return fmt.Errorf("core: edit-script generation cancelled: %w", err)
	}
	return nil
}

// emit appends the operation to the script and applies it to the working
// tree, keeping the two in lockstep as Figure 8 requires.
func (g *generator) emit(op edit.Op) error {
	if err := op.Apply(g.work); err != nil {
		return err
	}
	g.script = append(g.script, op)
	g.result.Work.Ops++
	return nil
}

// nextWorkID returns a fresh identifier for an inserted node. Tree IDs
// are allocated monotonically, so one past the maximum at the start of
// the run is free; the counter advances on every insert and
// InsertChildID keeps the tree's own allocator past it.
func (g *generator) nextWorkID() tree.NodeID {
	if g.nextID == 0 {
		g.work.Walk(func(n *tree.Node) bool {
			if n.ID() >= g.nextID {
				g.nextID = n.ID() + 1
			}
			return true
		})
	}
	id := g.nextID
	g.nextID++
	return id
}

// markInOrder marks the new-tree node x "in order"; its partner in the
// working tree is in order with it.
func (g *generator) markInOrder(x *tree.Node) {
	g.inOrder2[x.ID()] = true
	if g.gi != nil {
		g.gi.onMark(x)
	}
}

// alignChildren is Function AlignChildren (Figure 9): given partners w
// (working tree) and x (new tree), it generates the intra-parent moves
// that put w's matched children in the same relative order as x's.
// The LCS of the matched child sequences stays fixed; every other matched
// child is moved into place, which Lemma C.1 shows is the minimum number
// of moves.
func (g *generator) alignChildren(w, x *tree.Node) error {
	if w == nil || x == nil || (len(w.Children()) == 0 && len(x.Children()) == 0) {
		return nil
	}
	// Step 1: mark all children of x "out of order".
	for _, c := range x.Children() {
		g.inOrder2[c.ID()] = false
	}
	if g.gi != nil {
		g.gi.onReset(x.ID())
	}
	// Step 2: S1 = children of w whose partners are children of x;
	// S2 = children of x whose partners are children of w.
	s1, s2 := g.s1[:0], g.s2[:0]
	for _, c := range w.Children() {
		if pID, ok := g.mm.ToNew(c.ID()); ok {
			if p := g.new.Node(pID); p != nil && p.Parent() == x {
				s1 = append(s1, c)
			}
		}
	}
	for _, c := range x.Children() {
		if pID, ok := g.mm.ToOld(c.ID()); ok {
			if p := g.work.Node(pID); p != nil && p.Parent() == w {
				s2 = append(s2, c)
			}
		}
	}
	g.s1, g.s2 = s1, s2
	// Steps 3–5: LCS under equal(a,b) ⇔ (a,b) ∈ M'; its pairs stay put.
	pairs := lcs.Indices(len(s1), len(s2), func(i, j int) bool {
		g.result.Work.AlignEquals++
		g.result.Work.EffectiveAlignEquals++
		return g.mm.Has(s1[i].ID(), s2[j].ID())
	})
	for _, p := range pairs {
		g.markInOrder(s2[p.B])
	}
	// Step 6: move every matched pair not in the LCS into place,
	// left-to-right over x's children so FindPos anchors are in place.
	// The pairs' B sides are increasing indices into s2, so one walk in
	// step with them tells which children the LCS holds.
	for j, b := range s2 {
		if len(pairs) > 0 && pairs[0].B == j {
			pairs = pairs[1:]
			continue
		}
		aID, _ := g.mm.ToOld(b.ID())
		a := g.work.Node(aID)
		k, err := g.findPos(b)
		if err != nil {
			return err
		}
		if err := g.emit(edit.Mov(a.ID(), w.ID(), k)); err != nil {
			return err
		}
		g.result.MovedOld[a.ID()] = true
		g.markInOrder(b)
	}
	return nil
}

// findPos is Function FindPos (Figure 9): the 1-based position at which
// x's partner should be placed among the children of the partner of
// x's parent. The position is a concrete child index of the working tree:
// 1 when x has no "in order" left sibling, otherwise directly after the
// partner u of the rightmost in-order left sibling v of x. For moves the
// index is interpreted with the moved node already detached, matching
// tree.Move's semantics.
//
// Two interchangeable implementations exist: the indexed path
// (findPosIndexed, O(log fanout) per call) and the reference scan path
// (findPosScan, the literal Figure 9 loops, O(fanout) per call). They
// return identical positions and charge identical logical PosScans; the
// differential tests in differential_test.go pin the equivalence.
func (g *generator) findPos(x *tree.Node) (int, error) {
	if g.gi != nil {
		return g.findPosIndexed(x)
	}
	return g.findPosScan(x)
}

// findPosIndexed answers FindPos from the generation index. The logical
// PosScans charges replicate the scan path exactly: the first scan
// visits x's left siblings and x itself (childPos[x] steps), the second
// visits the working-tree siblings up to and including u (u's raw child
// index); executed work accrues to the index step counters instead.
func (g *generator) findPosIndexed(x *tree.Node) (int, error) {
	y := x.Parent()
	if y == nil {
		g.result.Work.PosScans++
		g.result.Work.EffectivePosScans++
		return 1, nil
	}
	xi := g.gi.childPos[x.ID()]
	g.result.Work.PosScans += int64(xi)
	// Steps 2–3: the rightmost in-order left sibling v, by predecessor
	// query on the parent's in-order Fenwick tree.
	vi := g.gi.bitsFor(y).prevSet(xi - 1)
	if vi == 0 {
		return 1, nil
	}
	v := y.Children()[vi-1]
	// Steps 4–5: u is v's partner; x goes directly after u.
	uID, ok := g.mm.ToOld(v.ID())
	if !ok {
		return 0, fmt.Errorf("core: in-order node %v has no partner", v)
	}
	u := g.work.Node(uID)
	if u == nil || u.Parent() == nil {
		return 0, fmt.Errorf("core: partner %d of in-order node %v not positioned", uID, v)
	}
	rU := g.gi.pos.Rank(u)
	g.result.Work.PosScans += int64(rU)
	// Exclude x's own partner if it is currently a left sibling of u
	// (a move detaches before re-inserting, shifting positions left of
	// the target).
	k := rU + 1
	if xPartnerID, hasPartner := g.mm.ToOld(x.ID()); hasPartner {
		if xp := g.work.Node(xPartnerID); xp != nil && xp.Parent() == u.Parent() && g.gi.pos.Rank(xp) < rU {
			k = rU
		}
	}
	return k, nil
}

// findPosScan is the reference FindPos: the two literal sibling scans
// of Figure 9, kept as the differential oracle for the indexed path.
func (g *generator) findPosScan(x *tree.Node) (int, error) {
	y := x.Parent()
	if y == nil {
		g.result.Work.PosScans++
		g.result.Work.EffectivePosScans++
		return 1, nil
	}
	// Steps 2–3: rightmost left sibling of x marked "in order".
	var v *tree.Node
	for _, sib := range y.Children() {
		g.result.Work.PosScans++
		g.result.Work.EffectivePosScans++
		if sib == x {
			break
		}
		if g.inOrder2[sib.ID()] {
			v = sib
		}
	}
	if v == nil {
		return 1, nil
	}
	// Steps 4–5: u is v's partner; x goes directly after u.
	uID, ok := g.mm.ToOld(v.ID())
	if !ok {
		return 0, fmt.Errorf("core: in-order node %v has no partner", v)
	}
	u := g.work.Node(uID)
	if u == nil || u.Parent() == nil {
		return 0, fmt.Errorf("core: partner %d of in-order node %v not positioned", uID, v)
	}
	// Count u's index among its parent's children, excluding x's own
	// partner if it is currently a left sibling of u (a move detaches
	// before re-inserting, shifting positions left of the target).
	xPartnerID, hasPartner := g.mm.ToOld(x.ID())
	idx := 0
	for _, sib := range u.Parent().Children() {
		g.result.Work.PosScans++
		g.result.Work.EffectivePosScans++
		if hasPartner && sib.ID() == xPartnerID {
			continue
		}
		idx++
		if sib == u {
			return idx + 1, nil
		}
	}
	return 0, fmt.Errorf("core: in-order partner %v not found among its parent's children", u)
}

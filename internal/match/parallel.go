package match

import (
	"sync"

	"ladiff/internal/compare"
	"ladiff/internal/lderr"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// Parallel label rounds.
//
// Both Match and FastMatch iterate over labels bottom-up; within one
// bottom-up rank, different labels touch disjoint node sets (a node has
// exactly one label), and the only cross-label state a label round reads
// is the set of matched *leaf* pairs consulted by common() — pairs that
// belong to strictly lower ranks whenever the rank group is independent
// (see groupIndependent). Such a group can therefore be processed by
// concurrent workers against a frozen base matching, with each worker
// accumulating its label's pairs in a private overlay, and the overlays
// merged afterward in sorted label order. Because no worker's decisions
// depend on another's output, the merged matching — and every Stats
// counter — are bit-identical to the sequential run; only wall-clock
// differs.
//
// Groups that fail the independence test (a group label appearing among
// the leaf descendants of the group's internal nodes, as happens with
// self-nesting or rank-tied mixed schemas) fall back to sequential
// processing, preserving exact sequential semantics.

// rounds processes every label of both trees in bottom-up rank order,
// applying process to each label. Rank groups that are independent are
// fanned out over a worker pool bounded by Options.Parallelism. A
// cancelled context (Options.Ctx) stops the schedule at the next label
// boundary; the in-flight rounds unwind through the refusing equality
// checks.
func (mr *matcher) rounds(process func(*matcher, tree.Label)) {
	for rank, group := range labelRankGroups(mr.t1, mr.t2) {
		if mr.checkCtxNow() {
			return
		}
		// One span per rank round (coarse: never per node, so the
		// disabled path pays one atomic load per round). The span is
		// passive — attributes describe the round, nothing reads them
		// back — so traced and untraced runs match bit for bit.
		_, sp := obs.StartSpan(mr.opts.Ctx, "round")
		sp.Int("rank", int64(rank))
		sp.Int("labels", int64(len(group)))
		if mr.opts.Parallelism <= 1 || len(group) < 2 || !mr.groupIndependent(group) {
			sp.Str("mode", "sequential")
			for _, label := range group {
				if mr.checkCtxNow() {
					sp.End()
					return
				}
				process(mr, label)
			}
			sp.End()
			continue
		}
		sp.Str("mode", "parallel")
		mr.runGroupParallel(group, process)
		sp.End()
	}
}

// runGroupParallel processes one independent rank group with a bounded
// worker pool: one fork per label, at most Parallelism running at once,
// merged deterministically in the group's (sorted) label order.
func (mr *matcher) runGroupParallel(group []tree.Label, process func(*matcher, tree.Label)) {
	subs := make([]*matcher, len(group))
	sem := make(chan struct{}, mr.opts.Parallelism)
	var wg sync.WaitGroup
	for i, label := range group {
		sub := mr.fork()
		subs[i] = sub
		wg.Add(1)
		go func(sub *matcher, label tree.Label) {
			defer wg.Done()
			// A panic on a worker goroutine would crash the process before
			// the entry-point recovery in Match/FastMatch could see it;
			// contain it here and surface it through the error path.
			defer func() {
				if v := recover(); v != nil && sub.err == nil {
					sub.err = lderr.Recovered("match", v)
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			process(sub, label)
		}(sub, label)
	}
	wg.Wait()
	for _, sub := range subs {
		mr.absorb(sub)
	}
}

// fork returns a worker matcher that shares the trees, indexes, base
// matching (read-only), and the run's work budget, and writes new pairs
// to a private overlay. Token caches and stats are worker-private so no
// state is shared mutably across goroutines.
func (mr *matcher) fork() *matcher {
	opts := mr.opts
	opts.Stats = &Stats{}
	return &matcher{
		t1: mr.t1, t2: mr.t2,
		idx1: mr.idx1, idx2: mr.idx2,
		opts:   opts,
		m:      mr.m,
		local:  NewMatching(),
		toks1:  make(map[tree.NodeID]*compare.Tokens),
		toks2:  make(map[tree.NodeID]*compare.Tokens),
		budget: mr.budget,
	}
}

// absorb merges a completed worker's overlay pairs and stats into the
// parent. Pairs() iterates in ascending old-ID (document) order, and the
// workers' label node sets are disjoint, so the merge is deterministic
// and conflict-free. A worker that observed cancellation propagates it;
// the merged pairs are then discarded with the run.
func (mr *matcher) absorb(sub *matcher) {
	if sub.err != nil && mr.err == nil {
		mr.err = sub.err
	}
	for _, p := range sub.local.Pairs() {
		mr.add(mr.t1.Node(p.Old), mr.t2.Node(p.New))
	}
	mr.opts.Stats.Add(*sub.opts.Stats)
}

// groupIndependent reports whether one rank group's labels may be
// matched concurrently with results identical to sequential processing.
// The condition: in neither tree does an internal node carrying a group
// label have a leaf descendant whose label is also in the group. Then
// every cross-label read a round performs — the matched-leaf partner
// lookups inside common() — sees only lower-rank pairs, all of which are
// complete (and frozen) before the group starts, so the group's labels
// cannot observe each other's output in any order.
func (mr *matcher) groupIndependent(group []tree.Label) bool {
	in := make(map[tree.Label]bool, len(group))
	for _, l := range group {
		in[l] = true
	}
	check := func(ix *tree.Index) bool {
		for _, l := range group {
			for _, n := range ix.Chain(l) {
				if n.IsLeaf() {
					continue
				}
				for _, w := range ix.LeavesUnder(n) {
					if in[w.Label()] {
						return false
					}
				}
			}
		}
		return true
	}
	return check(mr.idx1) && check(mr.idx2)
}

package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ladiff"
	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/gen"
	"ladiff/internal/latex"
	"ladiff/internal/match"
)

// lib-latex is the paper's own pipeline as the ladiff command runs it by
// default, in process: ParseLatex ×2 → Diff (zero Options: FastMatch) →
// BuildDelta → RenderLatex. One op diffs one corpus pair. The corpus
// crosses pair sizes of 300–1500 nodes (old + new) with the perturbation
// recipes of gen.Classes(). Shapes and edits are fixed by each pair's
// position in the corpus and the seed picks the words (see wording), so
// every seed carries the same work.

// libClasses are the gen.Classes() recipes the corpus uses.
var libClasses = []string{"default-mix", "wide-flat", "near-duplicates", "move-heavy", "insert-delete-heavy", "update-heavy"}

// libSizes are section counts: gen.Sections(n) shapes of ~23 nodes per
// section, and for wide-flat (~120 nodes per section) its own ladder.
var (
	libSizes     = []int{7, 12, 17, 23, 30}
	libWideSizes = []int{2, 3, 3, 4, 5}
)

// applyCheckEvery is how often an op re-derives the new tree by applying
// its script to the old one (the other ops check counters only).
const applyCheckEvery = 8

type libPair struct {
	class          string
	oldSrc, newSrc string
	nodes          int
	// Recorded by the set-up pass; every later op must reproduce them.
	ops, r1, r2 int64
	effLeaf     int64
	posScans    int64
}

type libLatex struct {
	pairs []libPair
	order []int
	next  int
	// traced-segment totals
	parseAlloc uint64
}

func setupLibLatex(o options) (bench, error) {
	sizes, wide := libSizes, libWideSizes
	if o.small {
		sizes, wide = []int{3, 5}, []int{1, 2}
	}
	byName := map[string]gen.Class{}
	for _, c := range gen.Classes() {
		byName[c.Name] = c
	}
	b := &libLatex{}
	words := newWording(o.seed)
	for ci, name := range libClasses {
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lib-latex: gen has no class %q", name)
		}
		ladder := sizes
		if name == "wide-flat" {
			ladder = wide
		}
		for si, n := range ladder {
			idx := int64(ci*len(ladder) + si)
			p := c.Doc
			p.Seed = 1000 + idx
			p.Sections = n
			if p.Vocabulary == 0 {
				p.Vocabulary = gen.Sections(n).Doc.Vocabulary
			}
			pert := c.Pert(1500 + idx)
			if name == "wide-flat" {
				// gen's own wide-flat recipe (200 mixed edits) costs
				// 70–500 ms per op at these sizes, and moving one of its
				// 80-sentence paragraphs costs 50–100 ms: the wide sibling
				// lists get 24 sentence-level edits instead.
				pert = gen.PerturbParams{Seed: 1500 + idx, UpdateSentences: 6, InsertSentences: 6, DeleteSentences: 6, MoveSentences: 6}
			}
			oldT := document(p)
			newT, err := perturb(oldT, pert)
			if err != nil {
				return nil, err
			}
			oldSrc, on, err := renderChecked("latex", words.text(oldT))
			if err != nil {
				return nil, err
			}
			newSrc, nn, err := renderChecked("latex", words.text(newT))
			if err != nil {
				return nil, err
			}
			b.pairs = append(b.pairs, libPair{class: name, oldSrc: oldSrc, newSrc: newSrc, nodes: on + nn})
		}
	}
	// The set-up pass records each pair's exact counters and checks the
	// script by replay; a second pass is the warm-up and must agree.
	for pass := 0; pass < 2; pass++ {
		for i := range b.pairs {
			p := &b.pairs[i]
			res, st, _, err := libDiff(p)
			if err != nil {
				return nil, fmt.Errorf("lib-latex %s: %w", p.class, err)
			}
			if err := checkReplay(res); err != nil {
				return nil, fmt.Errorf("lib-latex %s: %w", p.class, err)
			}
			ops, r1, r2 := int64(len(res.Script)), st.LeafCompares, st.PartnerChecks
			if pass == 0 {
				p.ops, p.r1, p.r2 = ops, r1, r2
				p.effLeaf = st.EffectiveLeafCompares
				p.posScans = res.Work.EffectivePosScans
			} else if p.ops != ops || p.r1 != r1 || p.r2 != r2 {
				return nil, fmt.Errorf("lib-latex %s: counters moved between passes", p.class)
			}
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	b.order = rng.Perm(len(b.pairs))
	return b, nil
}

// libDiff is one op: the pipeline as ladiff.Diff runs it by default.
func libDiff(p *libPair) (*ladiff.Result, match.Stats, string, error) {
	var st match.Stats
	old, err := ladiff.ParseLatex(p.oldSrc)
	if err != nil {
		return nil, st, "", err
	}
	nw, err := ladiff.ParseLatex(p.newSrc)
	if err != nil {
		return nil, st, "", err
	}
	res, err := ladiff.Diff(old, nw, ladiff.Options{Match: ladiff.MatchOptions{Stats: &st}})
	if err != nil {
		return nil, st, "", err
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		return nil, st, "", err
	}
	return res, st, ladiff.RenderLatex(dt), nil
}

// checkReplay asserts that applying the script to the old tree yields
// the new one (ApplyToOld checks the isomorphism, wrapping both trees in
// a dummy root when their roots were unmatched).
func checkReplay(res *ladiff.Result) error {
	if _, err := res.ApplyToOld(); err != nil {
		return fmt.Errorf("replaying script: %w", err)
	}
	return nil
}

// tracedDiff is libDiff with a span around each layer call. It makes
// the same calls ladiff.Diff makes for zero Options.
func (b *libLatex) tracedDiff(p *libPair, tr *tracer, id string) (*ladiff.Result, match.Stats, string, error) {
	var st match.Stats
	t0 := time.Now()
	a0 := heapAllocBytes()
	old, err := ladiff.ParseLatex(p.oldSrc)
	if err != nil {
		return nil, st, "", err
	}
	nw, err := ladiff.ParseLatex(p.newSrc)
	if err != nil {
		return nil, st, "", err
	}
	b.parseAlloc += heapAllocBytes() - a0
	t1 := time.Now()
	tr.add("parse", id, t0, t1)
	m, _, err := core.MatchWithFallback(old, nw, core.FastMatcher, match.Options{Stats: &st})
	if err != nil {
		return nil, st, "", err
	}
	t2 := time.Now()
	tr.add("match", id, t1, t2)
	res, err := core.EditScriptWith(old, nw, m, core.GenOptions{})
	if err != nil {
		return nil, st, "", err
	}
	t3 := time.Now()
	tr.add("gen", id, t2, t3)
	dt, err := delta.Build(res)
	if err != nil {
		return nil, st, "", err
	}
	t4 := time.Now()
	tr.add("delta", id, t3, t4)
	out := latex.Render(dt)
	tr.add("render", id, t4, time.Now())
	return res, st, out, nil
}

func (b *libLatex) timed(d time.Duration, tr *tracer) (*sample, error) {
	lat := closedLoop(d, func(i int) (time.Time, bool) {
		p := &b.pairs[b.order[b.next%len(b.order)]]
		b.next++
		var (
			res *ladiff.Result
			st  match.Stats
			out string
			err error
		)
		if tr == nil {
			res, st, out, err = libDiff(p)
		} else {
			id := strconv.Itoa(i)
			start := time.Now()
			res, st, out, err = b.tracedDiff(p, tr, id)
			tr.add(rootSpan, id, start, time.Now())
		}
		end := time.Now()
		if err != nil || out == "" {
			return end, false
		}
		if int64(len(res.Script)) != p.ops || st.LeafCompares != p.r1 || st.PartnerChecks != p.r2 {
			return end, false
		}
		if i%applyCheckEvery == 0 {
			return end, checkReplay(res) == nil
		}
		return end, true
	})
	return &sample{lat: lat}, nil
}

func (b *libLatex) exact() map[string]float64 {
	var nodes, ops, r1, r2 int64
	for _, p := range b.pairs {
		nodes += int64(p.nodes)
		ops += p.ops
		r1 += p.r1
		r2 += p.r2
	}
	n := float64(len(b.pairs))
	return map[string]float64{
		"corpus.nodes_per_op":     float64(nodes) / n,
		"gen.script_ops":          float64(ops) / n,
		"match.r1_leaf_compares":  float64(r1) / n,
		"match.r2_partner_checks": float64(r2) / n,
	}
}

func (b *libLatex) layers(tr *tracer, s *sample) (map[string]float64, error) {
	a := tr.analyse()
	var eff, r1, scans int64
	for _, p := range b.pairs {
		eff += p.effLeaf
		r1 += p.r1
		scans += p.posScans
	}
	n := float64(len(b.pairs))
	out := map[string]float64{
		"parse.ms_per_op":               a.perOp("parse"),
		"parse.alloc_kib_per_op":        float64(b.parseAlloc) / 1024 / float64(max(a.ops, 1)),
		"match.ms_per_op":               a.perOp("match"),
		"gen.ms_per_op":                 a.perOp("gen"),
		"delta.ms_per_op":               a.perOp("delta"),
		"render.ms_per_op":              a.perOp("render"),
		"match.effective_leaf_compares": float64(eff) / n,
		"gen.effective_pos_scans":       float64(scans) / n,
		"anatomy.unexplained_pct":       a.unexplainedPct(),
	}
	if r1 > 0 {
		out["match.memo_hit_ratio"] = float64(r1-eff) / float64(r1)
	}
	return out, nil
}

func (b *libLatex) info() map[string]any {
	return map[string]any{"pairs": len(b.pairs), "clients": 1, "loop": "closed", "nodes_per_op": b.exact()["corpus.nodes_per_op"]}
}

func (b *libLatex) close() error { return nil }

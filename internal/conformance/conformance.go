// Package conformance is the cross-surface conformance matrix: one
// table of workloads, one runner per surface, one invariant checker
// and the list of the differences a cell may show.
//
// The paper's guarantees (a script that turns the old tree into one
// isomorphic to the new and conforms to the matching M; §3.1, §4) come
// from one pipeline, served through seven surfaces: the library, the
// ladiff CLI, POST /v1/diff, a batch item, a job result, the routing
// tier (its /v1/diff, a batch and a job) and the version store (compose
// and rediff). A cell is one (workload, surface, knob); it must
// reproduce the library reference's script, delta and marked bytes on
// the same parsed documents, and an in-process cell also its WorkStats
// and MatchStats. Every cell checks the invariants (Check). The root
// package's TestConformance runs every surface but the CLI, whose
// column cmd/ladiff's TestConformance runs from the same table.
//
// Allowed differences, each with its reason:
//
//   - zs cells are compared with the library's zs run, not the fast
//     one: the engines pick different matchings, both valid.
//   - Phase timings (phaseMicros) are wall-clock.
//   - cached is set on the cache cells alone, because the diff cache
//     answered them.
//   - Prune cells are compared with the library's prune run of their
//     engine, whose script may differ from the unpruned run's:
//     claiming identical subtrees wholesale changes which partners the
//     criteria rounds see, and identical documents skip the matcher and
//     the generator (zero work counters). It must replay, and on the
//     workload table cost no more than the unpruned run (PruneCosts).
//   - Store cells are compared with the prune run, because the store
//     always prunes. A pair whose roots do not match is stored as a
//     rebase, which no composed script crosses (409 rebase_boundary);
//     its store cell takes the script from mode=rediff.
//   - gen.index fault cells are degraded, with the scan fallback's
//     reason; they and the scan cells run the scan generator, so their
//     Effective* work counters differ from the indexed run's.
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/obs"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/tree"
)

// Pair is one workload: two documents in one of store.Formats.
type Pair struct {
	Name, Format, Old, New string
	// Big marks full-scale sparse-1pct: only its in-process cells run,
	// and not zs. Its 8-section scaling carries the shape elsewhere.
	Big bool
}

// Parse parses both documents afresh.
func (p Pair) Parse() (oldT, newT *ladiff.Tree, err error) {
	if oldT, err = store.ParseDoc(p.Format, p.Old, tree.Limits{}); err == nil {
		newT, err = store.ParseDoc(p.Format, p.New, tree.Limits{})
	}
	return oldT, newT, err
}

// GenPair is a gen class's pair at the seeds the matrix and the engine
// goldens use: document seed 601, perturbation seed 602.
func GenPair(c gen.Class) (oldT, newT *ladiff.Tree) {
	doc := c.Doc
	doc.Seed = 601
	oldT = gen.Document(doc)
	pert, err := gen.Perturb(oldT, c.Pert(602))
	if err != nil {
		panic(err)
	}
	return oldT, pert.New
}

// Workloads returns the workload axis: every gen.Classes() class as
// tree source (a parse renumbers a perturbed tree, hence the reference
// runs on the parsed source), sparse-1pct also scaled to 8 sections,
// which runs in its place on the servers and in the zs column, the two
// pairs where the paper's guarantee stops, and one pair per format.
func Workloads() []Pair {
	var out []Pair
	add := func(c gen.Class, big bool) {
		oldT, newT := GenPair(c)
		out = append(out, Pair{c.Name, "tree", oldT.String(), newT.String(), big})
	}
	for _, c := range gen.Classes() {
		add(c, c.Name == "sparse-1pct")
		if c.Name == "sparse-1pct" {
			c.Name, c.Doc.Sections = "sparse-1pct-s8", 8
			c.Pert = func(seed int64) gen.PerturbParams { return gen.Mix(seed, 2) }
			add(c, false)
		}
	}
	out = append(out, MinimalPair, SplicePair)
	for _, f := range store.Formats {
		out = append(out, Pair{Name: f, Format: f, Old: formatPairs[f][0], New: formatPairs[f][1]})
	}
	return out
}

// The two pairs where the paper's guarantee stops, in the tree
// format: document/section/paragraph/sentence, no two sentences
// sharing a word.
var (
	// MinimalPair is the smallest pair on which Criteria 1–3 hold and
	// the labels are acyclic, yet the script is not minimal: the first
	// paragraph keeps 2 of max(4, 3) sentences, 0.5 ≤ t, so Criterion 2
	// rebuilds it (cost 7) where keeping it costs 3.
	MinimalPair = Pair{Name: "minimal-pair", Format: "tree",
		Old: section + paragraph + sentences(3, "Alpha bravo.", "Delta echo.", "Golf hotel.", "Juliet kilo.") + tail,
		New: section + paragraph + sentences(3, "Delta echo.", "Juliet kilo.", "Mike oscar.") + tail}
	// SplicePair removes a paragraph and hands its sentences to the
	// section: the Zhang–Shasha distance is 1 (delete the internal
	// node), but the paper's DEL removes leaves only, so every engine's
	// script is 3 MOV + DEL.
	SplicePair = Pair{Name: "splice-pair", Format: "tree",
		Old: section + paragraph + sentences(3, "Alpha bravo.", "Delta echo.", "Golf hotel."),
		New: section + sentences(2, "Alpha bravo.", "Delta echo.", "Golf hotel.")}
)

const section, paragraph = "document\n  section\n", "    paragraph\n"

var tail = paragraph + sentences(3, "Papa romeo.", "Sierra tango.", "Victor xray.")

// sentences renders sentence lines at depth d of the tree format.
func sentences(d int, values ...string) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%*ssentence %q\n", 2*d, "", v)
	}
	return b.String()
}

// formatPairs holds one small old/new pair per format.
var formatPairs = map[string][2]string{
	"latex": {
		"\\section{Intro}\nFirst sentence. Second sentence.\n",
		"\\section{Intro}\nFirst sentence. A new middle one. Second sentence.\n",
	},
	"html": {
		"<html><body><p>Alpha beta.</p><p>Gamma.</p></body></html>",
		"<html><body><p>Alpha beta gamma.</p><p>Delta.</p></body></html>",
	},
	"text": {
		"One two three. Four five.\n\nSecond paragraph here.",
		"One two three. Four five six.\n\nSecond paragraph here, changed.",
	},
	"xml":  {`<doc><a x="1">hello</a><b>world</b></doc>`, `<doc><a x="2">hello</a><c>world</c></doc>`},
	"json": {`{"name":"alpha","tags":["x","y"],"count":1}`, `{"name":"alpha","tags":["x","z"],"count":2}`},
	"tree": {
		"doc\n  section\n    p \"one\"\n    p \"two\"\n",
		"doc\n  section\n    p \"one\"\n    p \"two changed\"\n  section\n    p \"extra\"\n",
	},
}

// Surfaces lists the surfaces the root package runs; the CLI column
// runs in cmd/ladiff.
var Surfaces = []string{"library", "diff", "batch", "job", "routed-diff", "routed-batch", "routed-job", "store"}

const viaHTTP = "diff batch job routed-diff routed-batch routed-job"

// Knob is one configuration a cell runs under.
type Knob struct {
	Name     string
	Engine   string // matcher name; "" is fast
	Prune    bool
	WarmFP   bool   // library: fingerprint indexes built before the diff
	Scan     bool   // library: the scan generator (GenOptions.DisableIndex)
	Cache    string // diff: answered by the cache at the "body" or "source" key
	Degraded bool   // the gen.index fault: degraded to the scan generator
	on       string // the surfaces it applies to
}

// Knobs returns the knob axis.
func Knobs() []Knob {
	return []Knob{
		{Name: "default", on: "library cli store " + viaHTTP},
		{Name: "obs-traced", on: "library store " + viaHTTP},
		{Name: "obs-untraced", on: "library cli"},
		{Name: "fault", on: "library cli store " + viaHTTP},
		{Name: "fault-after", on: "library cli store " + viaHTTP},
		{Name: "gen-index", Degraded: true, on: "library cli store " + viaHTTP},
		{Name: "prune", Prune: true, on: "library cli " + viaHTTP},
		{Name: "warm-fp", WarmFP: true, on: "library"},
		{Name: "scan", Scan: true, on: "library"},
		{Name: "cache-body", Cache: "body", on: "diff"},
		{Name: "cache-source", Cache: "source", on: "diff"},
		{Name: "zs", Engine: "zs", on: "library cli " + viaHTTP},
		{Name: "zs-prune", Engine: "zs", Prune: true, on: "library"},
	}
}

// Applies reports whether the cell (p, surface, k) is in the matrix.
func (k Knob) Applies(surface string, p Pair) bool {
	return slices.Contains(strings.Fields(k.on), surface) &&
		!(p.Big && (k.Engine == "zs" || surface != "library" && surface != "cli"))
}

// Arm sets up the process-wide state k runs under: an armed
// observability layer (gen-index runs traced too) or fault plan. It
// returns the context a library cell runs with and the undo, which
// reports a traced cell that recorded nothing: no phase spans in
// process, no request trace on a server.
func (k Knob) Arm(p Pair) (context.Context, func() error) {
	ctx, undo := context.Background(), func() error { return nil }
	var rules []fault.Rule
	switch k.Name {
	case "fault", "fault-after":
		// A parse point of another format: no surface reaches it.
		pt := fault.ParseLatex
		if p.Format == "latex" {
			pt = fault.ParseHTML
		}
		rules = []fault.Rule{{Point: pt, Mode: fault.ModePanic}}
	case "gen-index":
		rules = []fault.Rule{{Point: fault.GenIndex, Mode: fault.ModeError}}
	}
	if rules != nil {
		off := fault.Activate(fault.Plan{Rules: rules})
		if k.Name == "fault-after" {
			off()
		}
		undo = func() error { off(); return nil }
	}
	if k.Name == "obs-traced" || k.Name == "obs-untraced" || k.Name == "gen-index" {
		ring := obs.NewRing(8)
		off := obs.Activate(obs.Config{Ring: ring})
		var tr *obs.Trace
		if k.Name != "obs-untraced" {
			tr, ctx = obs.StartTrace(ctx, "conformance", k.Name)
		}
		faultUndo := undo
		undo = func() error {
			tr.Finish()
			defer faultUndo()
			defer off()
			// A server offers its request's trace after sending the response.
			for wait := 0; k.Name == "obs-traced" && len(tr.Snapshot().Root.Spans) == 0 && ring.Stats().Offered == 0; wait++ {
				if wait == 5000 {
					return errors.New("the traced cell recorded no trace")
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		}
	}
	return ctx, undo
}

// Run is one cell's outputs in wire form. Stats (with Degraded and
// Reasons), Work, Match and Res are nil where the surface does not
// report them; only an in-process surface has a Result.
type Run struct {
	Script, Delta []byte
	Marked        string
	Stats         *server.DiffStats
	Degraded      bool
	Reasons       []string
	Work          *ladiff.WorkStats
	Match         *ladiff.MatchStats
	Res           *ladiff.Result
}

// Library runs the library surface on fresh parses of p.
func Library(ctx context.Context, p Pair, k Knob) (Run, error) {
	oldT, newT, err := p.Parse()
	if err != nil {
		return Run{}, err
	}
	return DiffTrees(ctx, p.Format, oldT, newT, k)
}

// DiffTrees runs the library surface on two trees: ladiff.Diff,
// ladiff.BuildDelta and store.RenderMarked in format's markup.
func DiffTrees(ctx context.Context, format string, oldT, newT *ladiff.Tree, k Knob) (Run, error) {
	if k.WarmFP {
		oldT.Fingerprints()
		newT.Fingerprints()
	}
	matcher, _ := ladiff.MatcherByName(k.Engine)
	stats := &ladiff.MatchStats{}
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{Matcher: matcher, Ctx: ctx,
		Match: ladiff.MatchOptions{Stats: stats, PruneIdentical: k.Prune},
		Gen:   ladiff.GenOptions{DisableIndex: k.Scan}})
	if err != nil {
		return Run{}, err
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		return Run{}, err
	}
	delta, err := json.Marshal(dt)
	return Run{
		Script: scriptJSON(res.Script), Delta: delta, Marked: store.RenderMarked(format, dt),
		Stats: &server.DiffStats{OldNodes: res.Old.Len(), NewNodes: res.New.Len(), Matched: res.Matching.Len(),
			Ops: len(res.Script), Cost: ladiff.UnitCosts().Cost(res.Script)},
		Degraded: res.Degraded, Reasons: res.DegradedReasons, Work: &res.Work, Match: stats, Res: res,
	}, err
}

// scriptJSON encodes a script (a pipeline's ops always encode), an
// empty one as [].
func scriptJSON(s ladiff.Script) []byte {
	if len(s) == 0 {
		return []byte("[]")
	}
	b, _ := json.Marshal(s)
	return b
}

// Refs holds a pair's library references: "default" (fast), "prune",
// "zs" and "zs-prune".
type Refs map[string]Run

// References runs p's library references and holds them to the
// invariants.
func References(p Pair) (Refs, error) {
	refs := Refs{}
	for _, k := range []Knob{{Name: "default"}, {Name: "prune", Prune: true},
		{Name: "zs", Engine: "zs"}, {Name: "zs-prune", Engine: "zs", Prune: true}} {
		if p.Big && k.Engine == "zs" {
			continue
		}
		run, err := Library(context.Background(), p, k)
		if err == nil {
			err = Check(run.Res, run.Res.Script)
		}
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", k.Name, err)
		}
		refs[k.Name] = run
	}
	return refs, nil
}

// PruneCosts holds each prune reference to its unpruned one's cost, true
// of the workload table but not of every pair: on the text pair
// "0 ! 0" → "0 . 0" the pruned script costs 7 against 2.
func (r Refs) PruneCosts() error {
	for pruned, base := range map[string]string{"prune": "default", "zs-prune": "zs"} {
		if r[pruned].Res == nil {
			continue // a Big pair has no zs references
		}
		if p, b := r[pruned].Res.Cost(nil), r[base].Res.Cost(nil); p > b {
			return fmt.Errorf("%s reference costs %.2f, more than the %s one's %.2f", pruned, p, base, b)
		}
	}
	return nil
}

// For returns the reference a cell of k on surface is compared with.
func (r Refs) For(surface string, k Knob) Run {
	switch {
	case k.Engine == "zs" && k.Prune:
		return r["zs-prune"]
	case k.Engine == "zs":
		return r["zs"]
	case k.Prune || surface == "store":
		return r["prune"]
	}
	return r["default"]
}

// Check verifies the paper's invariants for script, a diff of ref's
// trees conforming to ref's matching: replayed on a fresh parse of old
// it gives a tree isomorphic to the parsed new (and, replayed on a
// tree whose fingerprints were built first, the new tree's root
// fingerprint, so every mutation invalidated its Merkle path), it
// conforms to M, and M is one-to-one.
func Check(ref *ladiff.Result, script ladiff.Script) error {
	res := *ref
	res.Script = script
	_, err := res.ApplyToOld()
	if err = errors.Join(err, res.Conforms(res.Matching), res.Matching.Validate(res.Old, res.New)); err != nil || res.RootsWrapped {
		return err
	}
	work := res.Old.Clone()
	work.Fingerprints()
	if err := script.Apply(work); err != nil {
		return err
	}
	if ladiff.RootFingerprint(work) != ladiff.RootFingerprint(res.New) {
		return errors.New("replayed tree's root fingerprint differs from the new tree's: a stale Merkle path")
	}
	return nil
}

// Runner runs p under k on a surface.
type Runner func(ctx context.Context, surface string, p Pair, k Knob) (Run, error)

// Cell runs one cell: it arms k, runs the surface, and holds the
// outputs to the reference and the script to the invariants.
func Cell(surface string, p Pair, k Knob, refs Refs, run Runner) error {
	fallbacks := obs.GenIndexFallbacks.Load()
	ctx, undo := k.Arm(p)
	got, err := run(ctx, surface, p, k)
	if uerr := undo(); err == nil {
		err = uerr
	}
	if err != nil {
		return err
	}
	if got.Degraded && obs.GenIndexFallbacks.Load() == fallbacks {
		return errors.New("a degraded run did not bump engine_gen_index_fallbacks_total")
	}
	ref, res := refs.For(surface, k), got.Res
	if res == nil {
		res = ref.Res
	}
	var script ladiff.Script
	if err := json.Unmarshal(got.Script, &script); err != nil {
		return err
	}
	if err := Check(res, script); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	return Compare(ref, got, k)
}

// Compare reports how got differs from want beyond the allowed
// differences of k.
func Compare(want, got Run, k Knob) error {
	var diffs []string
	differ := func(what string, w, g any) {
		diffs = append(diffs, fmt.Sprintf("%s: got %.300s, want %.300s", what, fmt.Sprint(g), fmt.Sprint(w)))
	}
	if !bytes.Equal(got.Script, want.Script) {
		differ("script", string(want.Script), string(got.Script))
	}
	if !bytes.Equal(got.Delta, want.Delta) {
		differ("delta", string(want.Delta), string(got.Delta))
	}
	if got.Marked != want.Marked {
		differ("marked", want.Marked, got.Marked)
	}
	if got.Stats != nil {
		if !reflect.DeepEqual(*got.Stats, *want.Stats) {
			differ("stats", *want.Stats, *got.Stats)
		}
		fellBack := got.Degraded && len(got.Reasons) == 1 && strings.HasPrefix(got.Reasons[0], "gen: indexed path failed")
		if fellBack != k.Degraded || !fellBack && (got.Degraded || got.Reasons != nil) {
			differ("degraded", k.Degraded, fmt.Sprint(got.Degraded, got.Reasons))
		}
	}
	if got.Work != nil {
		w, g := *want.Work, *got.Work
		if k.Scan || k.Degraded {
			w.EffectivePosScans, w.EffectiveAlignEquals = g.EffectivePosScans, g.EffectiveAlignEquals
		}
		if g != w {
			differ("WorkStats", w, g)
		}
	}
	if got.Match != nil && *got.Match != *want.Match {
		differ("MatchStats", *want.Match, *got.Match)
	}
	if diffs != nil {
		return errors.New(strings.Join(diffs, "\n"))
	}
	return nil
}

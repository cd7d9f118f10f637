// Command ladiff is the paper's LaDiff system (§7, Appendix A): it takes
// two versions of a structured document and produces a marked-up document
// highlighting the changes, using the Table 2 conventions — bold for
// inserted sentences, small font for deleted ones, italics for updates,
// labels and footnotes for moves, marginal notes and heading annotations
// for paragraph- and section-level changes. It reads the six formats
// ladiffd serves, through the same table (internal/store), so it diffs
// object hierarchies and database dumps (§1) as XML, JSON or indented
// trees too.
//
// Usage:
//
//	ladiff [flags] OLD NEW
//	ladiff -hash [-v] FILE [FILE]
//
// -format is latex, html, text, xml, json or tree; without it OLD's
// extension picks (.tex/.latex, .html/.htm, .xml, .json, .tree, any other
// text). -out is marked (the default: the input format's markup, as
// ladiffd's output=marked), script, delta, json (the delta wire format,
// the same bytes as ladiffd's output=delta), summary, query (with -query
// EXPR, e.g. "**/sentence[changed]") or matching. -t and -f set the §5
// match thresholds, -compare wordlcs|exact|levenshtein|tokenset the leaf
// comparer, and -engine fast|simple|zs the matcher; -post adds the §8
// repair pass, so the §9 optimality levels A(0)..A(3) are the default,
// -post, -engine simple -post and -engine zs. -prune claims
// fingerprint-identical subtrees before the match rounds (less work;
// the script can differ), and -trace prints the engine span tree to
// stderr. -hash
// prints Merkle root fingerprints instead of diffing (-v: per subtree).
//
// Exit codes: 0 success, 1 unclassified failure, 2 usage, 3 input
// load/parse failure, 4 diff-pipeline failure, 5 internal failure,
// 6 -hash fingerprint mismatch.
//
// Examples:
//
//	ladiff old.tex new.tex > marked.tex
//	ladiff -out script old.html new.html
//	ladiff -out summary -t 0.7 old.txt new.txt
//	ladiff -engine zs -out summary old.tex new.tex
//	ladiff -out query -query "**/sentence[mrk]" old.tex new.tex
//	ladiff -compare levenshtein -out matching old.xml new.xml
//	ladiff -hash old.tex new.tex && echo unchanged
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ladiff"
	"ladiff/internal/delta"
	"ladiff/internal/lderr"
	"ladiff/internal/obs"
	"ladiff/internal/store"
	"ladiff/internal/tree"
)

// options holds the flags of one diff run.
type options struct {
	format  string  // a store.Formats name; "" picks one by OLD's extension
	out     string  // one of outputs
	t, f    float64 // match thresholds; 0 is the default
	compare string  // a comparers name; "" is wordlcs
	post    bool    // §8 repair pass
	engine  string  // matcher name; "" is FastMatch
	query   string  // delta query for -out query
	trace   bool    // span tree to stderr
	prune   bool    // fingerprint pre-pass
}

// outputs lists the -out forms.
var outputs = []string{"marked", "script", "delta", "json", "summary", "query", "matching"}

// comparers maps -compare names to leaf comparers. wordlcs is nil: the
// matcher's own token form of word-LCS, the one ladiffd runs.
var comparers = map[string]ladiff.CompareFunc{
	"wordlcs":     nil,
	"exact":       ladiff.CompareExact,
	"levenshtein": ladiff.CompareLevenshtein,
	"tokenset":    ladiff.CompareTokenSet,
}

func main() {
	var o options
	flag.StringVar(&o.format, "format", "", "input format: "+strings.Join(store.Formats, ", ")+" (default: by extension)")
	flag.StringVar(&o.out, "out", "marked", "output: "+strings.Join(outputs, ", "))
	flag.Float64Var(&o.t, "t", 0, "internal match threshold t in [0.5,1] (0 = default)")
	flag.Float64Var(&o.f, "f", 0, "leaf match threshold f in [0,1] (0 = default)")
	flag.StringVar(&o.compare, "compare", "wordlcs", "leaf comparer: wordlcs, exact, levenshtein, or tokenset")
	flag.BoolVar(&o.post, "post", false, "enable the §8 post-processing repair pass")
	flag.StringVar(&o.engine, "engine", "", "matching engine: fast (default), simple, or zs")
	flag.StringVar(&o.query, "query", "", "delta query expression for -out query")
	flag.BoolVar(&o.trace, "trace", false, "print the engine span tree (phase timings and work counters) to stderr")
	flag.BoolVar(&o.prune, "prune", false, "claim fingerprint-identical subtrees wholesale before the match rounds")
	hash := flag.Bool("hash", false, "print Merkle root fingerprints instead of diffing (one or two files)")
	verbose := flag.Bool("v", false, "with -hash: print the per-subtree fingerprint table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ladiff [flags] OLD NEW\n       ladiff -hash [-v] FILE [FILE]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch n := flag.NArg(); {
	case *hash && (n == 1 || n == 2):
		var differ bool
		if differ, err = runHash(flag.Args(), o.format, *verbose); differ {
			os.Exit(exitHashDiffer)
		}
	case !*hash && n == 2:
		err = run(flag.Arg(0), flag.Arg(1), o)
	default:
		flag.Usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladiff: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes past 0 (success) and 1 (unclassified failure), so scripts
// can tell a bad invocation from a bad input from a pipeline failure
// without parsing stderr.
const (
	exitUsage      = 2 // bad flags or arguments
	exitParse      = 3 // an input failed to load or parse
	exitDiff       = 4 // the pipeline failed: invalid thresholds, matching or generation
	exitInternal   = 5 // a contained panic or failed self-check: a bug, never the input's fault
	exitHashDiffer = 6 // -hash: the roots disagree, a finding rather than a failure
)

// exitError attaches an exit code to an error, keeping the wrapped chain
// for errors.Is/As.
type exitError struct {
	code int
	error
}

func (e *exitError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error {
	return &exitError{exitUsage, fmt.Errorf(format, a...)}
}

func parseError(err error) error { return &exitError{exitParse, err} }

// pipelineError classifies a pipeline failure: lderr.ErrInternal
// (contained panics, failed generator self-checks) exits 5, the rest 4.
func pipelineError(err error) error {
	if errors.Is(err, lderr.ErrInternal) {
		return &exitError{exitInternal, err}
	}
	return &exitError{exitDiff, err}
}

// exitCode maps a run error to the process exit code: nil → 0,
// classified errors → their code, anything else → 1.
func exitCode(err error) int {
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	if err != nil {
		return 1
	}
	return 0
}

// runHash implements -hash: the fingerprint inspection mode. One file
// prints its root fingerprint; two files print both and the process
// exits 6 when they differ, so shell pipelines can use the root hash as
// a cheap "did anything change?" probe without running a diff (the same
// trick examples/webwatch uses to skip unchanged fetches). With -v the
// whole per-subtree table prints: depth-indented, one row per node, the
// digest each cache and prune decision keys on.
func runHash(paths []string, format string, verbose bool) (differ bool, err error) {
	if err := checkFormat(format); err != nil {
		return false, err
	}
	var fps []ladiff.Fingerprint
	for _, path := range paths {
		t, err := load(path, cmp.Or(format, formatByExt(path)))
		if err != nil {
			return false, parseError(err)
		}
		fp := ladiff.RootFingerprint(t)
		fps = append(fps, fp)
		fmt.Printf("%s  %s\n", fp, path)
		if verbose {
			for _, nf := range ladiff.SubtreeFingerprints(t) {
				val := nf.Node.Value()
				if len(val) > 40 {
					val = val[:37] + "..."
				}
				fmt.Printf("  %s  %*s%s  %q\n", nf.FP, 2*ladiff.NodeDepth(nf.Node), "", nf.Node.Label(), val)
			}
		}
	}
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			return true, nil
		}
	}
	return false, nil
}

func run(oldPath, newPath string, o options) error {
	// Every usage error is found before a file is read.
	matcher, ok := ladiff.MatcherByName(o.engine)
	if !ok {
		return usagef("unknown -engine %q (want one of %v)", o.engine, ladiff.EngineNames())
	}
	compare, ok := comparers[cmp.Or(o.compare, "wordlcs")]
	if !ok {
		return usagef("unknown -compare %q (want wordlcs, exact, levenshtein, or tokenset)", o.compare)
	}
	if err := checkFormat(o.format); err != nil {
		return err
	}
	if !slices.Contains(outputs, o.out) {
		return usagef("unknown -out %q (want one of %v)", o.out, outputs)
	}
	var query *delta.Query
	if o.out == "query" {
		var err error
		if query, err = delta.ParseQuery(o.query); err != nil {
			return usagef("-out query needs a -query EXPR: %w", err)
		}
	}

	// -trace arms the observability layer for this process and hangs
	// the whole run under one trace; the span tree (parse, match
	// rounds, generation phases, serialize) prints to stderr at the
	// end, with stdout left untouched for the diff output.
	var (
		tr  *obs.Trace
		ctx context.Context
	)
	if o.trace {
		defer obs.Activate(obs.Config{})()
		tr, ctx = obs.StartTrace(context.Background(), "ladiff", "cli")
		defer func() {
			tr.Finish()
			fmt.Fprint(os.Stderr, obs.RenderText(tr.Snapshot().Root))
		}()
	}

	format := cmp.Or(o.format, formatByExt(oldPath))
	_, psp := obs.StartSpan(ctx, "parse")
	psp.Str("format", format)
	oldT, err := load(oldPath, format)
	if err != nil {
		psp.End()
		return parseError(err)
	}
	newT, err := load(newPath, format)
	if err != nil {
		psp.End()
		return parseError(err)
	}
	psp.Int("old_nodes", int64(oldT.Len()))
	psp.Int("new_nodes", int64(newT.Len()))
	psp.End()

	stats := &ladiff.MatchStats{}
	mopts := ladiff.MatchOptions{InternalThreshold: o.t, LeafThreshold: o.f, Compare: compare, Stats: stats, PruneIdentical: o.prune}
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{Matcher: matcher, PostProcess: o.post, Match: mopts, Ctx: ctx})
	if err != nil {
		return pipelineError(err)
	}
	_, ssp := obs.StartSpan(ctx, "serialize")
	defer ssp.End()
	ssp.Str("out", o.out)
	switch o.out {
	case "script":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Script)
	case "summary":
		return summarize(res, stats)
	case "matching":
		for _, p := range res.Matching.Pairs() {
			fmt.Printf("%d\t%d\t%v\t%v\n", p.Old, p.New, res.Old.Node(p.Old), res.New.Node(p.New))
		}
		return nil
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		return pipelineError(err)
	}
	switch o.out {
	case "delta":
		fmt.Print(dt.String())
	case "json":
		return json.NewEncoder(os.Stdout).Encode(dt)
	case "query":
		for _, h := range dt.Select(query) {
			fmt.Printf("%s\t%s\t%s\n", h.Node.Kind, h.Path, h.Node.Value)
		}
	default: // marked, in the input format's conventions, as on ladiffd
		fmt.Print(store.RenderMarked(format, dt))
	}
	return nil
}

// checkFormat refuses a -format outside the server's table; "" is
// resolved by extension.
func checkFormat(format string) error {
	if format != "" && !store.ValidFormat(format) {
		return usagef("unknown -format %q (want one of %v)", format, store.Formats)
	}
	return nil
}

// extFormats maps file extensions to formats; any other extension is text.
var extFormats = map[string]string{
	".tex": "latex", ".latex": "latex", ".html": "html", ".htm": "html",
	".xml": "xml", ".json": "json", ".tree": "tree",
}

func formatByExt(path string) string {
	return cmp.Or(extFormats[strings.ToLower(filepath.Ext(path))], "text")
}

func load(path, format string) (*ladiff.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := store.ParseDoc(format, string(data), tree.Limits{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func summarize(res *ladiff.Result, stats *ladiff.MatchStats) error {
	ins, del, upd, mov := res.Script.Counts()
	d, e, err := res.Distances()
	if err != nil {
		return err
	}
	fmt.Printf("old tree:  %d nodes (%d leaves)\n", res.Old.Len(), len(res.Old.Leaves()))
	fmt.Printf("new tree:  %d nodes (%d leaves)\n", res.New.Len(), len(res.New.Leaves()))
	fmt.Printf("matched:   %d node pairs\n", res.Matching.Len())
	fmt.Printf("script:    %d operations (%d insert, %d delete, %d update, %d move)\n",
		len(res.Script), ins, del, upd, mov)
	fmt.Printf("cost:      %.2f (unit cost model)\n", res.Cost(nil))
	fmt.Printf("distances: d=%d (unweighted), e=%d (weighted, §5.3)\n", d, e)
	fmt.Printf("matching:  r1=%d leaf compares, r2=%d partner checks (§8 cost model)\n",
		stats.LeafCompares, stats.PartnerChecks)
	fmt.Printf("editscript: %d node visits, %d align probes, %d position scans (O(ND), §4)\n",
		res.Work.Visits, res.Work.AlignEquals, res.Work.PosScans)
	return nil
}

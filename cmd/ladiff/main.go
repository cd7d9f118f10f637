// Command ladiff is the paper's LaDiff system (§7, Appendix A): it takes
// two versions of a structured document and produces a marked-up document
// highlighting the changes, using the Table 2 conventions — bold for
// inserted sentences, small font for deleted ones, italics for updates,
// labels and footnotes for moves, marginal notes and heading annotations
// for paragraph- and section-level changes.
//
// Usage:
//
//	ladiff [flags] OLD NEW
//
//	-format latex|html|text   input format (default: by file extension)
//	-out    marked|script|delta|summary
//	                          output form (default marked)
//	-t      0.5..1.0          internal match threshold (§5, default 0.6)
//	-f      0..1              leaf match threshold (§5, default 0.5)
//	-post                     enable the §8 post-processing repair pass
//	-engine fast|simple|zs
//	                          matching engine (§5): FastMatch (default),
//	                          Algorithm Match, or the Zhang–Shasha
//	                          optimal edit mapping; not combined with
//	                          -level, which picks its own engines
//	-level  -1|0..3           optimality level A(k) (§9); -1 = plain
//	                          FastMatch pipeline (default)
//	-query  EXPR              with -out query: delta query, e.g.
//	                          "**/sentence[changed]"
//	-json                     emit the delta tree as JSON in the ladiffd
//	                          wire format (same bytes as POST /v1/diff
//	                          with output=delta); overrides -out
//	-prune                    claim fingerprint-identical subtrees
//	                          wholesale before the match rounds (§5
//	                          pre-pass; same script, less work)
//	-hash                     print Merkle root fingerprints instead of
//	                          diffing; accepts one or two files, exits 0
//	                          if all roots agree, 6 if they differ
//	-v                        with -hash: per-subtree fingerprint table
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
//	ladiff -level 3 -out summary old.tex new.tex
//	ladiff -engine zs -out summary old.tex new.tex
//	ladiff -out query -query "**/sentence[mrk]" old.tex new.tex
//	ladiff -prune -out summary old.tex new.tex
//	ladiff -hash old.tex new.tex && echo unchanged
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"encoding/json"

	"ladiff"
	"ladiff/internal/cli"
	"ladiff/internal/obs"
)

func main() {
	format := flag.String("format", "", "input format: latex, html, or text (default: by extension)")
	out := flag.String("out", "marked", "output: marked, script, delta, or summary")
	tThresh := flag.Float64("t", 0, "internal match threshold t in [0.5,1] (0 = default)")
	fThresh := flag.Float64("f", 0, "leaf match threshold f in [0,1] (0 = default)")
	post := flag.Bool("post", false, "enable the §8 post-processing repair pass")
	engine := flag.String("engine", "", "matching engine: fast (default), simple, or zs")
	level := flag.Int("level", -1, "optimality level A(k), 0..3; -1 = plain pipeline")
	query := flag.String("query", "", "delta query expression for -out query")
	jsonOut := flag.Bool("json", false, "emit the delta tree as JSON in the ladiffd wire format (overrides -out)")
	trace := flag.Bool("trace", false, "print the engine span tree (phase timings and work counters) to stderr")
	prune := flag.Bool("prune", false, "claim fingerprint-identical subtrees wholesale before the match rounds")
	hash := flag.Bool("hash", false, "print Merkle root fingerprints instead of diffing (one or two files)")
	verbose := flag.Bool("v", false, "with -hash: print the per-subtree fingerprint table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ladiff [flags] OLD NEW\n       ladiff -hash [-v] FILE [FILE]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *hash {
		if flag.NArg() < 1 || flag.NArg() > 2 {
			flag.Usage()
			os.Exit(cli.ExitUsage)
		}
		differ, err := runHash(flag.Args(), *format, *verbose)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladiff: %v\n", err)
			os.Exit(cli.ExitCode(err))
		}
		if differ {
			os.Exit(exitHashDiffer)
		}
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *format, *out, *tThresh, *fThresh, *post, *engine, *level, *query, *jsonOut, *trace, *prune); err != nil {
		fmt.Fprintf(os.Stderr, "ladiff: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// exitHashDiffer is the -hash mode's "roots disagree" exit code — its
// own value, past the cli package's error classes, because a mismatch
// is a finding, not a failure.
const exitHashDiffer = 6

// runHash implements -hash: the fingerprint inspection mode. One file
// prints its root fingerprint; two files print both and the process
// exits 6 when they differ, so shell pipelines can use the root hash as
// a cheap "did anything change?" probe without running a diff (the same
// trick examples/webwatch uses to skip unchanged fetches). With -v the
// whole per-subtree table prints: depth-indented, one row per node, the
// digest each cache and prune decision keys on.
func runHash(paths []string, format string, verbose bool) (differ bool, err error) {
	var fps []ladiff.Fingerprint
	for _, path := range paths {
		resolved := format
		if resolved == "" {
			resolved = formatByExt(path)
		}
		t, err := load(path, resolved)
		if err != nil {
			return false, cli.ParseError(err)
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

func run(oldPath, newPath, format, out string, t, f float64, post bool, engine string, level int, query string, jsonOut, trace, prune bool) error {
	matcher, ok := ladiff.MatcherByName(engine)
	if !ok {
		return cli.UsageError(fmt.Errorf("unknown -engine %q (want one of %v)", engine, ladiff.EngineNames()))
	}
	if engine != "" && level >= 0 {
		// The optimality ladder picks its own engines per level; a fixed
		// engine under it would silently be ignored.
		return cli.UsageError(fmt.Errorf("-engine cannot be combined with -level"))
	}
	// -trace arms the observability layer for this process and hangs
	// the whole run under one trace; the span tree (parse, match
	// rounds, generation phases, serialize) prints to stderr at the
	// end, with stdout left untouched for the diff output.
	var (
		tr  *obs.Trace
		ctx context.Context
	)
	if trace {
		defer obs.Activate(obs.Config{})()
		tr, ctx = obs.StartTrace(context.Background(), "ladiff", "cli")
		defer func() {
			tr.Finish()
			fmt.Fprint(os.Stderr, obs.RenderText(tr.Snapshot().Root))
		}()
	}

	resolved := format
	if resolved == "" {
		resolved = formatByExt(oldPath)
	}
	_, psp := obs.StartSpan(ctx, "parse")
	psp.Str("format", resolved)
	oldT, err := load(oldPath, resolved)
	if err != nil {
		psp.End()
		return cli.ParseError(err)
	}
	newT, err := load(newPath, resolved)
	if err != nil {
		psp.End()
		return cli.ParseError(err)
	}
	psp.Int("old_nodes", int64(oldT.Len()))
	psp.Int("new_nodes", int64(newT.Len()))
	psp.End()

	stats := &ladiff.MatchStats{}
	mopts := ladiff.MatchOptions{InternalThreshold: t, LeafThreshold: f, Stats: stats, PruneIdentical: prune}
	var res *ladiff.Result
	if level >= 0 {
		mopts.Ctx = ctx
		res, err = ladiff.DiffAtLevel(oldT, newT, ladiff.OptimalityLevel(level), mopts)
	} else {
		res, err = ladiff.Diff(oldT, newT, ladiff.Options{Matcher: matcher, PostProcess: post, Match: mopts, Ctx: ctx})
	}
	if err != nil {
		return cli.PipelineError(err)
	}
	_, ssp := obs.StartSpan(ctx, "serialize")
	defer ssp.End()
	if jsonOut {
		ssp.Str("out", "json")
	} else {
		ssp.Str("out", out)
	}
	if jsonOut {
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			return cli.PipelineError(err)
		}
		return json.NewEncoder(os.Stdout).Encode(dt)
	}
	switch out {
	case "script":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Script)
	case "delta":
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			return cli.PipelineError(err)
		}
		fmt.Print(dt.String())
		return nil
	case "summary":
		return summarize(res, stats)
	case "query":
		if query == "" {
			return cli.UsageError(fmt.Errorf("-out query requires -query EXPR"))
		}
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			return cli.PipelineError(err)
		}
		hits, err := ladiff.DeltaQuery(dt, query)
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Printf("%s\t%s\t%s\n", h.Node.Kind, h.Path, h.Node.Value)
		}
		return nil
	case "marked":
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			return cli.PipelineError(err)
		}
		// The markup follows the input format: LaTeX documents get the
		// paper's Table 2 conventions, HTML gets <ins>/<del>/<em> with
		// move anchors, plain text gets a +/-/~ change report.
		switch resolved {
		case "html":
			fmt.Print(ladiff.RenderHTMLDelta(dt))
		case "text":
			fmt.Print(ladiff.RenderTextDelta(dt))
		default:
			fmt.Print(ladiff.RenderLatex(dt))
		}
		return nil
	default:
		return cli.UsageError(fmt.Errorf("unknown -out %q (want marked, script, delta, summary, or query)", out))
	}
}

func formatByExt(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".tex", ".latex":
		return "latex"
	case ".html", ".htm":
		return "html"
	default:
		return "text"
	}
}

func load(path, format string) (*ladiff.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if format == "" {
		format = formatByExt(path)
	}
	switch format {
	case "latex":
		return ladiff.ParseLatex(string(data))
	case "html":
		return ladiff.ParseHTML(string(data))
	case "text":
		return ladiff.ParseText(string(data)), nil
	default:
		return nil, fmt.Errorf("unknown format %q (want latex, html, or text)", format)
	}
}

func summarize(res *ladiff.Result, stats *ladiff.MatchStats) error {
	ins, del, upd, mov := res.Script.Counts()
	d, e, err := res.Distances()
	if err != nil {
		return err
	}
	fmt.Printf("old tree:  %d nodes (%d sentences)\n", res.Old.Len(), len(res.Old.Leaves()))
	fmt.Printf("new tree:  %d nodes (%d sentences)\n", res.New.Len(), len(res.New.Leaves()))
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

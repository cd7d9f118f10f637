package ladiff_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§8), plus the comparative claims of §2/§4/§5. Each benchmark drives
// the same harness as cmd/experiments (internal/bench), so `go test
// -bench=.` regenerates every artifact; the aggregate numbers are
// reported through b.ReportMetric in the units the paper uses.
//
//	BenchmarkFig13a        — Figure 13(a): e vs d (reports mean e/d)
//	BenchmarkFig13b        — Figure 13(b): comparisons vs bound
//	BenchmarkTable1        — Table 1: mismatch upper bound vs threshold
//	BenchmarkMatchVsFastMatch — §5.3: Match vs FastMatch comparisons
//	BenchmarkPipelineVsZS  — §2: ours vs Zhang–Shasha wall-clock
//	BenchmarkEditScriptND  — §4: EditScript work, O(ND)
//
// Plus micro-benchmarks of the pipeline stages on the medium document
// set, for profiling regressions.

import (
	"testing"

	"ladiff"
	"ladiff/internal/bench"
	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/zs"
)

func BenchmarkFig13a(b *testing.B) {
	var meanRatio float64
	for i := 0; i < b.N; i++ {
		points, err := bench.Fig13a([]int{8, 24, 48})
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, p := range points {
			if p.D > 0 {
				ratios = append(ratios, p.Ratio)
			}
		}
		meanRatio = bench.Mean(ratios)
	}
	b.ReportMetric(meanRatio, "e/d")
}

func BenchmarkFig13b(b *testing.B) {
	var meanSlack float64
	for i := 0; i < b.N; i++ {
		points, err := bench.Fig13b([]int{8, 24, 48})
		if err != nil {
			b.Fatal(err)
		}
		var slacks []float64
		for _, p := range points {
			if p.Slack > 0 {
				slacks = append(slacks, p.Slack)
			}
		}
		meanSlack = bench.Mean(slacks)
	}
	b.ReportMetric(meanSlack, "bound/measured")
}

func BenchmarkTable1(b *testing.B) {
	var atHalf, atOne float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(0)
		if err != nil {
			b.Fatal(err)
		}
		atHalf, atOne = rows[0].Percent, rows[len(rows)-1].Percent
	}
	b.ReportMetric(atHalf, "%mismatch@t=0.5")
	b.ReportMetric(atOne, "%mismatch@t=1.0")
}

func BenchmarkMatchVsFastMatch(b *testing.B) {
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		points, err := bench.MatcherScaling([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		fast = float64(points[0].FastCompares)
		slow = float64(points[0].SlowCompares)
	}
	b.ReportMetric(fast, "fast-compares")
	b.ReportMetric(slow, "match-compares")
}

func BenchmarkPipelineVsZS(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, err := bench.ZSScaling([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		p := points[0]
		if p.OursNanos > 0 {
			ratio = float64(p.ZSNanos) / float64(p.OursNanos)
		}
	}
	b.ReportMetric(ratio, "zs/ours-time")
}

func BenchmarkEditScriptND(b *testing.B) {
	var opsAtMax float64
	for i := 0; i < b.N; i++ {
		points, err := bench.EditScriptND([]int{8, 32})
		if err != nil {
			b.Fatal(err)
		}
		opsAtMax = float64(points[len(points)-1].Ops)
	}
	b.ReportMetric(opsAtMax, "ops@D=32")
}

func BenchmarkLevelAblation(b *testing.B) {
	var fastCost, optCost float64
	for i := 0; i < b.N; i++ {
		points, err := bench.LevelAblation(0)
		if err != nil {
			b.Fatal(err)
		}
		fastCost = points[0].Cost
		optCost = points[len(points)-1].Cost
	}
	b.ReportMetric(fastCost, "cost@A(0)")
	b.ReportMetric(optCost, "cost@A(3)")
}

func BenchmarkQualityGap(b *testing.B) {
	var controlGap, heavyGap float64
	for i := 0; i < b.N; i++ {
		points, err := bench.QualityGap([]float64{0, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		controlGap = points[0].Gap
		heavyGap = points[1].Gap
	}
	b.ReportMetric(controlGap, "gap@dup=0")
	b.ReportMetric(heavyGap, "gap@dup=0.5")
}

// --- Stage micro-benchmarks on the medium document set ---

func mediumPair(b *testing.B) (*ladiff.Tree, *ladiff.Tree) {
	b.Helper()
	doc := gen.Document(bench.Sets()[1].Params)
	pert, err := gen.Perturb(doc, gen.Mix(42, 24))
	if err != nil {
		b.Fatal(err)
	}
	return doc, pert.New
}

func BenchmarkStageFastMatch(b *testing.B) {
	oldT, newT := mediumPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.FastMatch(oldT, newT, match.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageFastMatchSequential is BenchmarkStageFastMatch with
// the parallel rounds disabled (the seed engine's numbers are recorded
// in BENCH_matching.json).
func BenchmarkStageFastMatchSequential(b *testing.B) {
	oldT, newT := mediumPair(b)
	opts := match.Options{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.FastMatch(oldT, newT, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageSimpleMatch(b *testing.B) {
	oldT, newT := mediumPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Match(oldT, newT, match.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageEditScript(b *testing.B) {
	oldT, newT := mediumPair(b)
	m, err := match.FastMatch(oldT, newT, match.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EditScript(oldT, newT, m); err != nil {
			b.Fatal(err)
		}
	}
}

// wideFlatPair is a scaled-down editperf shape (see
// internal/bench/editperf.go): one sentence list of fanout 2048 with
// inserts and intra-parent moves, driven with the ground-truth
// matching so the benchmark isolates the generation phase.
func wideFlatPair(b *testing.B) (*ladiff.Tree, *ladiff.Tree, *match.Matching) {
	b.Helper()
	doc := gen.Document(gen.DocParams{
		Seed: 1, Sections: 1, MinParagraphs: 1, MaxParagraphs: 1,
		MinSentences: 2048, MaxSentences: 2048,
	})
	pert, err := gen.Perturb(doc, gen.PerturbParams{Seed: 101, InsertSentences: 400, MoveSentences: 100})
	if err != nil {
		b.Fatal(err)
	}
	return doc, pert.New, pert.Truth
}

func BenchmarkStageEditScriptWideFlat(b *testing.B) {
	oldT, newT, m := wideFlatPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EditScriptWith(oldT, newT, m, core.GenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageEditScriptWideFlatScan is the same pair through the
// reference linear-scan FindPos — the floor the generation index is
// measured against (BENCH_editscript.json records the full-size pair).
func BenchmarkStageEditScriptWideFlatScan(b *testing.B) {
	oldT, newT, m := wideFlatPair(b)
	opts := core.GenOptions{DisableIndex: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EditScriptWith(oldT, newT, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageFullPipeline(b *testing.B) {
	oldT, newT := mediumPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ladiff.Diff(oldT, newT, ladiff.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageDeltaBuild(b *testing.B) {
	oldT, newT := mediumPair(b)
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ladiff.BuildDelta(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageZhangShasha(b *testing.B) {
	// Smaller input: ZS is quadratic.
	doc := gen.Document(gen.DocParams{Seed: 7, Sections: 3})
	pert, err := gen.Perturb(doc, gen.Mix(9, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zs.UnitDistance(doc, pert.New); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatexParse(b *testing.B) {
	doc := gen.Document(bench.Sets()[0].Params)
	src := ladiff.RenderLatexPlain(doc)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ladiff.ParseLatex(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneDisabled is the fingerprint ladder's disabled-overhead
// guard: the full pipeline with pruning off (the default) on trees that
// have never computed a fingerprint. CI runs this as a smoke to keep
// the disabled path compiling and measured; comparing it against
// BenchmarkPruneEnabled shows the ladder's net effect on this workload
// (BENCH_hashing.json records the authoritative numbers across
// workload classes).
func BenchmarkPruneDisabled(b *testing.B) {
	oldT, newT := mediumPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Diff(oldT.Clone(), newT.Clone(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneEnabled measures the same pipeline with the Merkle
// prune pass on. Each iteration re-clones the trees, so the run pays
// the full fingerprint build every time — the honest cold-cache cost.
func BenchmarkPruneEnabled(b *testing.B) {
	oldT, newT := mediumPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Diff(oldT.Clone(), newT.Clone(), core.Options{
			Match: match.Options{PruneIdentical: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

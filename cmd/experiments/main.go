// Command experiments regenerates every table and figure of the paper's
// evaluation (Chawathe et al., SIGMOD 1996, §8) on the synthetic document
// sets described in DESIGN.md, printing each as an aligned text table in
// the shape the paper reports.
//
// Usage:
//
//	experiments [-run fig13a,fig13b,table1,matchers,zs,editscript,ablation,quality,qualityperf,matchperf,editperf,hashperf,routeperf,batchperf] [-out DIR]
//
// With no -run flag every experiment runs, in the order above; a -run
// list runs its experiments in that order too, and a name outside it
// exits 2 before anything runs. The six experiments whose names end in
// "perf" also write their BENCH_*.json report into the -out directory
// (default "."). The output of a full run is recorded in EXPERIMENTS.md
// alongside the paper's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ladiff/internal/bench"
)

// outDir is the directory the -out flag names: every report keeps its
// file name under it.
var outDir = "."

func main() {
	list := flag.String("run", "", "comma-separated experiments to run (default: all)")
	flag.StringVar(&outDir, "out", outDir, "directory the BENCH_*.json reports are written to")
	flag.Parse()
	os.Exit(run(*list))
}

// experiment is one -run name and the function that runs it.
type experiment struct {
	name string
	fn   func() error
}

// experiments is every experiment in the order a run takes them.
var experiments = []experiment{
	{"fig13a", runFig13a},
	{"fig13b", runFig13b},
	{"table1", runTable1},
	{"matchers", runMatchers},
	{"zs", runZS},
	{"editscript", runEditScript},
	{"ablation", runAblation},
	{"quality", runQuality},
	{"qualityperf", runQualityPerf},
	{"matchperf", runMatchPerf},
	{"editperf", runEditPerf},
	{"hashperf", runHashPerf},
	{"routeperf", runRoutePerf},
	{"batchperf", runBatchPerf},
}

// run runs the experiments the comma-separated list names, every one
// for an empty list, in table order, and returns the exit code: 2 when
// the list names an experiment the table lacks (nothing runs then), 1
// when an experiment fails.
func run(list string) int {
	selected := experiments
	if list != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			want[strings.TrimSpace(name)] = true
		}
		selected = nil
		for _, exp := range experiments {
			if want[exp.name] {
				selected = append(selected, exp)
				delete(want, exp.name)
			}
		}
		for name := range want { // any name left is unknown
			fmt.Fprintf(os.Stderr, "experiments: no experiment named %q\n", name)
			return 2
		}
	}
	for _, exp := range selected {
		if err := exp.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", exp.name, err)
			return 1
		}
	}
	return 0
}

// writeReport writes report as indented JSON to the named file in the
// -out directory.
func writeReport(file string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func runFig13a() error {
	points, err := bench.Fig13a(nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 13(a): weighted edit distance e vs unweighted d ==")
	fmt.Println("   (paper: near-linear, e/d ≈ 3.4 on average, low variance across sets)")
	var rows [][]string
	var ratios []float64
	for _, p := range points {
		rows = append(rows, []string{
			p.Set, fmt.Sprint(p.Leaves), fmt.Sprint(p.D), fmt.Sprint(p.E), fmt.Sprintf("%.2f", p.Ratio),
		})
		if p.D > 0 {
			ratios = append(ratios, p.Ratio)
		}
	}
	fmt.Print(bench.FormatTable([]string{"set", "n(leaves)", "d", "e", "e/d"}, rows))
	fmt.Printf("mean e/d = %.2f\n\n", bench.Mean(ratios))
	return nil
}

func runFig13b() error {
	points, err := bench.Fig13b(nil)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 13(b): FastMatch comparisons vs weighted edit distance e ==")
	fmt.Println("   (paper: measured ≈ 20x below the analytical bound (ne+e²)c + 2lne,")
	fmt.Println("    roughly linear in e with visible variance)")
	var rows [][]string
	var slacks []float64
	for _, p := range points {
		rows = append(rows, []string{
			p.Set, fmt.Sprint(p.Leaves), fmt.Sprint(p.E),
			fmt.Sprint(p.Measured), fmt.Sprintf("%.0f", p.Bound), fmt.Sprintf("%.1fx", p.Slack),
		})
		if p.Slack > 0 {
			slacks = append(slacks, p.Slack)
		}
	}
	fmt.Print(bench.FormatTable([]string{"set", "n(leaves)", "e", "measured", "bound", "bound/measured"}, rows))
	fmt.Printf("mean bound/measured = %.1fx\n\n", bench.Mean(slacks))
	return nil
}

func runTable1() error {
	rows, err := bench.Table1(0)
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: upper bound on mismatched paragraphs (%) per threshold t ==")
	fmt.Println("   (paper: –, 1, 3, 7, 9, 10 — rising with t)")
	header := []string{"Match threshold (t):"}
	percents := []string{"Upper bound on mismatches (%):"}
	counts := []string{"flagged/total paragraphs:"}
	for _, r := range rows {
		header = append(header, fmt.Sprintf("%.1f", r.T))
		percents = append(percents, fmt.Sprintf("%.0f", r.Percent))
		counts = append(counts, fmt.Sprintf("%d/%d", r.Flagged, r.Total))
	}
	fmt.Print(bench.FormatTable(header, [][]string{percents, counts}))
	fmt.Println()
	return nil
}

func runMatchers() error {
	points, err := bench.MatcherScaling(nil)
	if err != nil {
		return err
	}
	fmt.Println("== E6a: Match vs FastMatch scaling (fixed perturbation, growing n) ==")
	fmt.Println("   (§5.3 claim: FastMatch ≈ O((ne+e²)c), Match ≈ O(n²c) worst case)")
	var rows [][]string
	for _, p := range points {
		speedup := float64(p.SlowNanos) / float64(max(p.FastNanos, 1))
		rows = append(rows, []string{
			fmt.Sprint(p.Leaves),
			fmt.Sprint(p.FastCompares), fmt.Sprint(p.SlowCompares),
			fmt.Sprintf("%.2fms", float64(p.FastNanos)/1e6),
			fmt.Sprintf("%.2fms", float64(p.SlowNanos)/1e6),
			fmt.Sprintf("%.1fx", speedup),
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"n(leaves)", "fast compares", "match compares", "fast time", "match time", "speedup"}, rows))
	fmt.Println()
	return nil
}

func runZS() error {
	points, err := bench.ZSScaling(nil)
	if err != nil {
		return err
	}
	fmt.Println("== E6b: full pipeline vs Zhang–Shasha [ZS89] baseline ==")
	fmt.Println("   (§2 claim: ours near-linear when e≪n; ZS Ω(n²) — gap widens with n)")
	var rows [][]string
	for _, p := range points {
		speedup := float64(p.ZSNanos) / float64(max(p.OursNanos, 1))
		rows = append(rows, []string{
			fmt.Sprint(p.Nodes),
			fmt.Sprintf("%.2fms", float64(p.OursNanos)/1e6),
			fmt.Sprintf("%.2fms", float64(p.ZSNanos)/1e6),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%.1f", p.OursCost),
			fmt.Sprintf("%.1f", p.ZSCost),
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"nodes", "ours time", "zs time", "zs/ours", "our cost", "zs dist"}, rows))
	fmt.Println()
	return nil
}

func runEditScript() error {
	points, err := bench.EditScriptND(nil)
	if err != nil {
		return err
	}
	fmt.Println("== E7: EditScript work vs misalignment D at fixed N (§4 claim: O(ND)) ==")
	fmt.Println("   (work = visits + alignment equality probes + position scans — the")
	fmt.Println("    machine-independent counter; the O(N) visit floor dominates at small D)")
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.Nodes), fmt.Sprint(p.Misaligned), fmt.Sprint(p.Ops),
			fmt.Sprint(p.Work),
			fmt.Sprintf("%.2fms", float64(p.Nanos)/1e6),
		})
	}
	fmt.Print(bench.FormatTable([]string{"N(nodes)", "D(moves)", "script ops", "work", "time"}, rows))
	fmt.Println()
	return nil
}

func runAblation() error {
	points, err := bench.LevelAblation(0)
	if err != nil {
		return err
	}
	fmt.Println("== E9: optimality-level ablation A(0)..A(3) on a Criterion-3-violating workload ==")
	fmt.Println("   (§9's A(k): A(1)/A(2) never cost more than A(0); time jumps at A(3),")
	fmt.Println("    which optimizes the move-free [ZS89] objective, so its cost may differ slightly)")
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.LevelName,
			fmt.Sprintf("%.2f", p.Cost),
			fmt.Sprint(p.Ops),
			fmt.Sprintf("%.2fms", float64(p.Nanos)/1e6),
		})
	}
	fmt.Print(bench.FormatTable([]string{"level", "script cost", "ops", "time"}, rows))
	fmt.Println()
	return nil
}

func runQuality() error {
	points, err := bench.QualityGap(nil)
	if err != nil {
		return err
	}
	fmt.Println("== E10: optimality gap vs Criterion-3 violation rate (move-free workloads) ==")
	fmt.Println("   (§8: sub-optimal matchings cost a slightly longer script, never a wrong one;")
	fmt.Println("    gap = script cost / ZS optimum under aligned pricing, 1.0 = optimal;")
	fmt.Println("    A(1) pays the criteria's conservatism, A(3) ignores the criteria)")
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.DuplicateRate),
			fmt.Sprint(p.Violations),
			fmt.Sprintf("%.1f", p.FastCost),
			fmt.Sprintf("%.1f", p.A3Cost),
			fmt.Sprintf("%.1f", p.OptimalCost),
			fmt.Sprintf("%.2fx", p.Gap),
			fmt.Sprintf("%.2fx", p.A3Gap),
		})
	}
	fmt.Print(bench.FormatTable([]string{"dup rate", "violations", "A(1) cost", "A(3) cost", "optimal", "A(1) gap", "A(3) gap"}, rows))
	fmt.Println()
	return nil
}

// qualityPerfSections overrides the E14 size sweep; nil means the
// default. The smoke test trims it so the suite stays fast.
var qualityPerfSections []int

func runQualityPerf() error {
	report, err := bench.CollectQualityPerf(0, qualityPerfSections)
	if err != nil {
		return err
	}
	fmt.Println("== E14: quality/runtime frontier — every engine × workload class ==")
	fmt.Println("   (cost ratio = script cost / optimal edit distance under aligned pricing;")
	fmt.Println("    1.0 = optimal; the oracle op set has no move, so move-heavy criteria")
	fmt.Println("    scripts can undercut it — a model gap, not a broken oracle)")
	var rows [][]string
	for _, r := range report.Rows {
		rows = append(rows, []string{
			r.Class, r.Engine, fmt.Sprint(r.OldNodes),
			fmt.Sprintf("%.2fms", float64(r.NsPerOp)/1e6),
			fmt.Sprint(r.ScriptOps),
			fmt.Sprintf("%.1f", r.ScriptCost),
			fmt.Sprintf("%.1f", r.OptimalCost),
			fmt.Sprintf("%.2fx", r.CostRatio),
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"class", "engine", "nodes", "time", "ops", "cost", "optimal", "ratio"}, rows))
	if err := writeReport("BENCH_quality.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// matchPerfSlots sizes the multi-label pairs of the matchperf report.
const matchPerfSlots = 800

func runMatchPerf() error {
	report, err := bench.CollectMatchingPerf(9, matchPerfSlots)
	if err != nil {
		return err
	}
	fmt.Println("== Matching engine: FastMatch on a document pair and two multi-label pairs ==")
	fmt.Println("   (r1/r2 are the logical Figure 13(b) counters)")
	rows := [][]string{}
	for _, r := range report.After {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%.2f", float64(r.NsPerOp)/1e6),
			fmt.Sprint(r.Pairs), fmt.Sprint(r.R1), fmt.Sprint(r.R2),
		})
	}
	fmt.Print(bench.FormatTable([]string{"config", "ms/op", "pairs", "r1", "r2"}, rows))
	if err := writeReport("BENCH_matching.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runEditPerf() error {
	report, err := bench.CollectEditPerf(5)
	if err != nil {
		return err
	}
	fmt.Println("== Edit-script generation: scan FindPos vs order-statistic index ==")
	fmt.Println("   (wide-flat pair; PosScans is the logical Theorem C.2 counter and must")
	fmt.Println("    not drift between configurations; scripts are verified byte-identical)")
	var rows [][]string
	for _, r := range []bench.EditPerfRun{report.Before, report.After} {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%.2f", float64(r.NsPerOp)/1e6),
			fmt.Sprint(r.ScriptOps), fmt.Sprint(r.PosScans),
			fmt.Sprint(r.EffectivePosScans),
		})
	}
	fmt.Print(bench.FormatTable([]string{"config", "ms/op", "script ops", "pos scans", "eff pos steps"}, rows))
	fmt.Printf("scripts identical: %v\n", report.ScriptsIdentical)
	fmt.Printf("speedup scan→indexed: %.1fx\n", report.SpeedupX)
	if err := writeReport("BENCH_editscript.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runHashPerf() error {
	report, err := bench.CollectHashPerf(0)
	if err != nil {
		return err
	}
	fmt.Println("== E13: Merkle fingerprint ladder — sparse edits, short circuit, worst case ==")
	fmt.Println("   (pruning claims identical subtrees wholesale before the label rounds;")
	fmt.Println("    every rep re-clones the trees, so pruned runs pay the full hash build)")
	var rows [][]string
	for _, c := range []bench.HashPerfComparison{report.Sparse, report.SparseFast, report.Identical, report.Dense} {
		rows = append(rows, []string{
			c.Workload, c.Matcher, fmt.Sprint(c.OldNodes),
			fmt.Sprintf("%.2fms", float64(c.Base.NsPerOp)/1e6),
			fmt.Sprintf("%.2fms", float64(c.Pruned.NsPerOp)/1e6),
			fmt.Sprintf("%.1fx", c.SpeedupX),
			fmt.Sprint(c.Base.R1), fmt.Sprint(c.Pruned.R1),
			fmt.Sprint(c.Pruned.PrunedPairs),
			fmt.Sprint(c.ResultsAgree),
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"workload", "matcher", "nodes", "off", "on", "speedup", "r1 off", "r1 on", "pruned pairs", "agree"}, rows))
	cz := report.Cache
	fmt.Printf("cache (zipf s=%.1f over %d pairs, %d requests): %.0fµs/req off, %.0fµs/req on, %.1fx, hit rate %.0f%%\n",
		cz.ZipfS, cz.DocPairs, cz.Requests,
		float64(cz.MeanUSCacheOff), float64(cz.MeanUSCacheOn), cz.SpeedupX, cz.HitRate*100)
	if err := writeReport("BENCH_hashing.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// routePerfPairs/Requests/Window override the E16 workload sizes;
// 0 means the defaults (16/600/200). The smoke test trims them.
var (
	routePerfPairs    = 0
	routePerfRequests = 0
	routePerfWindow   = 0
)

func runRoutePerf() error {
	report, err := bench.CollectRoutePerf(routePerfPairs, routePerfRequests, routePerfWindow)
	if err != nil {
		return err
	}
	fmt.Println("== E16: routing tier — zipf replay across replicas, with a mid-replay kill ==")
	fmt.Println("   (body-hash affinity keeps each replica's diff cache hot; the kill run")
	fmt.Println("    ejects the hottest document's owner, restarts it cold, and measures")
	fmt.Println("    how much cache locality the post-recovery window retains)")
	var rows [][]string
	for _, s := range report.Scenarios {
		rows = append(rows, []string{
			s.Name, fmt.Sprint(s.Replicas), fmt.Sprint(s.Requests), fmt.Sprint(s.Errors),
			fmt.Sprintf("%.0f", s.ThroughputRPS),
			fmt.Sprintf("%.2f", float64(s.P50US)/1e3),
			fmt.Sprintf("%.2f", float64(s.P99US)/1e3),
			fmt.Sprintf("%.0f%%", s.CacheHitRate*100),
			fmt.Sprintf("%.0f%%", s.WindowHitRate*100),
			fmt.Sprint(s.Failovers),
			fmt.Sprint(s.RecoveryMS),
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"scenario", "replicas", "requests", "errors", "req/s", "p50 ms", "p99 ms", "hit rate", "window hits", "failovers", "recovery ms"}, rows))
	fmt.Printf("retained hit ratio after kill+recovery: %.2f (target >= 0.90)\n", report.RetainedHitRatio)
	if err := writeReport("BENCH_routing.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// batchPerfPairs/batchPerfRounds shrink the harness in CI smoke tests.
var (
	batchPerfPairs  = 0
	batchPerfRounds = 0
)

func runBatchPerf() error {
	report, err := bench.CollectBatchPerf(batchPerfPairs, batchPerfRounds)
	if err != nil {
		return err
	}
	fmt.Println("== E17: batch + async-job APIs — batch-N vs N sequential tiny pairs ==")
	fmt.Println("   (one POST /v1/diff/batch fans its items across the shared worker")
	fmt.Println("    slots; the sequential leg replays the same pairs back-to-back on")
	fmt.Println("    one connection — the client a batch API replaces)")
	rows := [][]string{
		{"sequential", fmt.Sprint(report.Pairs * report.Rounds),
			fmt.Sprintf("%.2f", report.SequentialSeconds),
			fmt.Sprintf("%.0f", report.SequentialPairsPerSec)},
		{"batch", fmt.Sprint(report.Pairs * report.Rounds),
			fmt.Sprintf("%.2f", report.BatchSeconds),
			fmt.Sprintf("%.0f", report.BatchPairsPerSec)},
	}
	fmt.Print(bench.FormatTable([]string{"mode", "pairs", "seconds", "pairs/s"}, rows))
	fmt.Printf("batch speedup over sequential: %.1fx (N = %d, gomaxprocs %d, target >= 2x)\n",
		report.SpeedupX, report.Pairs, report.GoMaxProcs)
	fmt.Printf("job submit p50/p95: %.2f/%.2f ms, submit->done p50/p95: %.2f/%.2f ms\n",
		float64(report.JobSubmitP50US)/1e3, float64(report.JobSubmitP95US)/1e3,
		float64(report.JobDoneP50US)/1e3, float64(report.JobDoneP95US)/1e3)
	if err := writeReport("BENCH_batch.json", report); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

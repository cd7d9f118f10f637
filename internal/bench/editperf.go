// Edit-script generation performance evidence: the before/after record
// behind the BENCH_editscript.json artifact. Unlike the matching report,
// both sides are measured live: the "before" run forces the reference
// linear-scan FindPos (GenOptions.DisableIndex), the "after" run uses
// the order-statistic generation index. The two generators are
// byte-identical by construction — the report re-verifies it op-for-op.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// EditPerfRun is one measured configuration of Algorithm EditScript on
// the wide-flat pair.
type EditPerfRun struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	// NsPerOp is the median wall-clock of one EditScript call.
	NsPerOp int64 `json:"ns_per_op"`
	// ScriptOps is the emitted edit-script length.
	ScriptOps int64 `json:"script_ops"`
	// PosScans/AlignEquals are the logical Theorem C.2 counters; they
	// are identical across configurations by design.
	PosScans    int64 `json:"pos_scans"`
	AlignEquals int64 `json:"align_equals"`
	// Effective counters show what actually executed.
	EffectivePosScans    int64  `json:"effective_pos_scans"`
	EffectiveAlignEquals int64  `json:"effective_align_equals"`
	Notes                string `json:"notes,omitempty"`
}

// EditPerfReport is the full BENCH_editscript.json payload.
type EditPerfReport struct {
	Benchmark  string      `json:"benchmark"`
	Pair       string      `json:"pair"`
	GoMaxProcs int         `json:"gomaxprocs"`
	OldNodes   int         `json:"old_nodes"`
	NewNodes   int         `json:"new_nodes"`
	Before     EditPerfRun `json:"before"`
	After      EditPerfRun `json:"after"`
	SpeedupX   float64     `json:"speedup_x"`
	// ScriptsIdentical records the op-for-op comparison of the two
	// generators' scripts on this pair.
	ScriptsIdentical bool `json:"scripts_identical"`
}

// editPerfPair returns the fixed pair every run measures: a single
// sentence list of fanout 32768 with 6000 inserted and 2000 moved
// sentences — the wide flat shape on which the Figure 9 sibling scans
// are Θ(ops·fanout) while everything else the generator does stays
// near-linear. Ground truth supplies the matching so the measurement
// isolates the generation phase.
func editPerfPair() (oldT, newT *tree.Tree, m *match.Matching, err error) {
	const fanout = 32768
	doc := gen.Document(gen.DocParams{
		Seed: 1, Sections: 1, MinParagraphs: 1, MaxParagraphs: 1,
		MinSentences: fanout, MaxSentences: fanout,
	})
	pert, err := gen.Perturb(doc, gen.PerturbParams{
		Seed: 101, InsertSentences: 6000, MoveSentences: 2000,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return doc, pert.New, pert.Truth, nil
}

// CollectEditPerf measures both generator configurations on the
// wide-flat pair and assembles the full report. iters is the number of
// timed EditScript calls per configuration (the median is reported);
// values below 1 are raised to 1.
func CollectEditPerf(iters int) (*EditPerfReport, error) {
	if iters < 1 {
		iters = 1
	}
	oldT, newT, m, err := editPerfPair()
	if err != nil {
		return nil, err
	}

	report := &EditPerfReport{
		Benchmark:  "BenchmarkStageEditScriptWideFlat",
		Pair:       "flat(fanout=32768) ⊕ {ins:6000, mov:2000}(seed=101), ground-truth matching",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		OldNodes:   oldT.Len(),
		NewNodes:   newT.Len(),
	}

	configs := []struct {
		name, desc string
		opts       core.GenOptions
	}{
		{"scan", "reference Figure 9 FindPos: linear sibling scans",
			core.GenOptions{DisableIndex: true}},
		{"indexed", "order-statistic generation index: Fenwick in-order cache + maintained child treaps",
			core.GenOptions{}},
	}
	var scripts [2]*core.Result
	for ci, cfg := range configs {
		run := EditPerfRun{Name: cfg.name, Config: cfg.desc}
		times := make([]int64, iters)
		for i := range times {
			start := time.Now()
			res, err := core.EditScriptWith(oldT, newT, m, cfg.opts)
			times[i] = time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench: editperf %s: %w", cfg.name, err)
			}
			run.ScriptOps = res.Work.Ops
			run.PosScans = res.Work.PosScans
			run.AlignEquals = res.Work.AlignEquals
			run.EffectivePosScans = res.Work.EffectivePosScans
			run.EffectiveAlignEquals = res.Work.EffectiveAlignEquals
			scripts[ci] = res
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		run.NsPerOp = times[len(times)/2]
		if ci == 0 {
			report.Before = run
		} else {
			report.After = run
		}
	}

	report.ScriptsIdentical = len(scripts[0].Script) == len(scripts[1].Script)
	if report.ScriptsIdentical {
		for i := range scripts[0].Script {
			if scripts[0].Script[i] != scripts[1].Script[i] {
				report.ScriptsIdentical = false
				break
			}
		}
	}
	if !report.ScriptsIdentical {
		return nil, fmt.Errorf("bench: editperf: scan and indexed generators emitted different scripts")
	}
	if report.After.NsPerOp > 0 {
		report.SpeedupX = float64(report.Before.NsPerOp) / float64(report.After.NsPerOp)
	}
	return report, nil
}

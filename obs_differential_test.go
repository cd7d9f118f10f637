package ladiff_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/obs"
)

// obsWorkloads mirrors the gen workload classes of the core
// differential battery: document shape and duplicate pressure crossed
// with the perturbation mixes. The trace-invariance battery runs every
// class, because the obs layer hooks every phase the classes stress
// differently (wide sibling lists hit the generator spans hardest,
// near-duplicates the matcher's leaf compares, move-heavy the alignment
// phase).
var obsWorkloads = []struct {
	name string
	doc  gen.DocParams
	pert func(seed int64) gen.PerturbParams
}{
	{
		name: "default-mix",
		doc:  gen.DocParams{},
		pert: func(seed int64) gen.PerturbParams { return gen.Mix(seed, 24) },
	},
	{
		name: "wide-flat",
		doc: gen.DocParams{
			Sections: 2, MinParagraphs: 1, MaxParagraphs: 2,
			MinSentences: 64, MaxSentences: 96,
		},
		pert: func(seed int64) gen.PerturbParams { return gen.Mix(seed, 200) },
	},
	{
		name: "near-duplicates",
		doc:  gen.DocParams{DuplicateRate: 0.35, Vocabulary: 120},
		pert: func(seed int64) gen.PerturbParams { return gen.Mix(seed, 20) },
	},
	{
		name: "move-heavy",
		doc:  gen.DocParams{},
		pert: func(seed int64) gen.PerturbParams {
			return gen.PerturbParams{Seed: seed, MoveSentences: 18, MoveParagraphs: 6}
		},
	},
	{
		name: "insert-delete-heavy",
		doc:  gen.DocParams{},
		pert: func(seed int64) gen.PerturbParams {
			return gen.PerturbParams{Seed: seed, InsertSentences: 14, DeleteSentences: 14}
		},
	},
	{
		name: "update-heavy",
		doc:  gen.DocParams{},
		pert: func(seed int64) gen.PerturbParams {
			return gen.PerturbParams{Seed: seed, UpdateSentences: 20, UpdateFraction: 0.4}
		},
	},
}

// obsRun is everything a Diff run externalizes: the three output
// encodings plus the work counters. The invariance battery requires
// byte- and bit-identity of all of it across observability states.
type obsRun struct {
	script []byte
	delta  []byte
	marked []byte
	work   ladiff.WorkStats
	stats  ladiff.MatchStats
}

func diffOnce(t *testing.T, oldT, newT *ladiff.Tree, ctx context.Context) obsRun {
	t.Helper()
	stats := &ladiff.MatchStats{}
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{
		Match: ladiff.MatchOptions{Stats: stats},
		Ctx:   ctx,
	})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	script, err := json.Marshal(res.Script)
	if err != nil {
		t.Fatalf("marshal script: %v", err)
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		t.Fatalf("BuildDelta: %v", err)
	}
	deltaJSON, err := json.Marshal(dt)
	if err != nil {
		t.Fatalf("marshal delta: %v", err)
	}
	return obsRun{
		script: script,
		delta:  deltaJSON,
		marked: []byte(ladiff.RenderLatex(dt)),
		work:   res.Work,
		stats:  *stats,
	}
}

func assertRunsIdentical(t *testing.T, state string, base, got obsRun) {
	t.Helper()
	if !bytes.Equal(base.script, got.script) {
		t.Errorf("%s: edit script differs from disabled baseline:\n%.200s\n%.200s",
			state, base.script, got.script)
	}
	if !bytes.Equal(base.delta, got.delta) {
		t.Errorf("%s: delta JSON differs from disabled baseline", state)
	}
	if !bytes.Equal(base.marked, got.marked) {
		t.Errorf("%s: marked output differs from disabled baseline", state)
	}
	if base.work != got.work {
		t.Errorf("%s: WorkStats differ: %+v vs %+v", state, base.work, got.work)
	}
	if base.stats != got.stats {
		t.Errorf("%s: MatchStats differ: %+v vs %+v", state, base.stats, got.stats)
	}
}

// TestObsTraceInvariance is the contract the observability layer lives
// under: it is strictly passive. For every workload class, a run with
// tracing fully enabled (armed, sampled, span tree recorded, trace
// offered to a ring) and a run armed-but-unsampled must both produce
// byte-identical outputs — edit script, delta JSON, marked document —
// and bit-identical work counters versus the disabled baseline.
func TestObsTraceInvariance(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("observability armed at test start")
	}
	for _, wl := range obsWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				doc := wl.doc
				doc.Seed = seed
				oldT := gen.Document(doc)
				pert, err := gen.Perturb(oldT, wl.pert(seed+100))
				if err != nil {
					t.Fatalf("seed %d: Perturb: %v", seed, err)
				}

				base := diffOnce(t, oldT, pert.New, nil)

				// Fully enabled: armed, sampled, traced, ring-retained.
				ring := obs.NewRing(4)
				deactivate := obs.Activate(obs.Config{Ring: ring})
				tr, ctx := obs.StartTrace(context.Background(), "invariance", "inv-1")
				if tr == nil {
					t.Fatal("StartTrace returned nil while armed")
				}
				traced := diffOnce(t, oldT, pert.New, ctx)
				tr.Finish()
				obs.Offer(tr)
				if got := ring.Stats().Kept; got != 1 {
					t.Errorf("ring kept %d traces, want 1", got)
				}
				deactivate()
				assertRunsIdentical(t, "enabled-traced", base, traced)

				// The trace recorded real phase spans — the enabled run
				// was actually observed, not silently untraced.
				snap := tr.Snapshot()
				if len(snap.Root.Spans) == 0 {
					t.Error("enabled run recorded no phase spans")
				}

				// Armed but unsampled: checkpoints live, no span tree.
				deactivate = obs.Activate(obs.Config{
					Sample: func(string) bool { return false },
				})
				tr2, ctx2 := obs.StartTrace(context.Background(), "invariance", "inv-2")
				if tr2 != nil {
					t.Fatal("StartTrace sampled a rejected id")
				}
				unsampled := diffOnce(t, oldT, pert.New, ctx2)
				deactivate()
				assertRunsIdentical(t, "armed-unsampled", base, unsampled)
			}
		})
	}
}

// TestObsTraceInvarianceUnderFault extends the invariance contract to
// degraded runs: with a deterministic fault forcing the generator's
// indexed path down its scan fallback, the traced run must still match
// the disabled run byte for byte — same degraded output, same reasons,
// plus a recorded gen_index_fallbacks gauge bump only on the armed run.
func TestObsTraceInvarianceUnderFault(t *testing.T) {
	doc := gen.DocParams{Seed: 3}
	oldT := gen.Document(doc)
	pert, err := gen.Perturb(oldT, gen.Mix(103, 24))
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}

	diffDegraded := func(ctx context.Context) (obsRun, []string) {
		stats := &ladiff.MatchStats{}
		res, err := ladiff.Diff(oldT, pert.New, ladiff.Options{
			Match: ladiff.MatchOptions{Stats: stats},
			Ctx:   ctx,
		})
		if err != nil {
			t.Fatalf("Diff under fault: %v", err)
		}
		if !res.Degraded {
			t.Fatal("injected gen.index fault did not degrade the run")
		}
		script, _ := json.Marshal(res.Script)
		dt, err := ladiff.BuildDelta(res)
		if err != nil {
			t.Fatalf("BuildDelta: %v", err)
		}
		deltaJSON, _ := json.Marshal(dt)
		return obsRun{
			script: script,
			delta:  deltaJSON,
			marked: []byte(ladiff.RenderLatex(dt)),
			work:   res.Work,
			stats:  *stats,
		}, res.DegradedReasons
	}

	undoFault := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.GenIndex, Mode: fault.ModeError},
	}})
	defer undoFault()

	base, baseReasons := diffDegraded(nil)

	deactivate := obs.Activate(obs.Config{Ring: obs.NewRing(4)})
	fallbacksBefore := obs.GenIndexFallbacks.Load()
	tr, ctx := obs.StartTrace(context.Background(), "invariance-fault", "inv-f")
	traced, tracedReasons := diffDegraded(ctx)
	tr.Finish()
	gotFallbacks := obs.GenIndexFallbacks.Load() - fallbacksBefore
	deactivate()

	assertRunsIdentical(t, "enabled-traced-fault", base, traced)
	if len(baseReasons) != len(tracedReasons) {
		t.Errorf("degraded reasons differ: %v vs %v", baseReasons, tracedReasons)
	}
	for i := range baseReasons {
		if baseReasons[i] != tracedReasons[i] {
			t.Errorf("degraded reason %d differs: %q vs %q", i, baseReasons[i], tracedReasons[i])
		}
	}
	if gotFallbacks != 1 {
		t.Errorf("gen_index_fallbacks bumped by %d during the traced run, want 1", gotFallbacks)
	}
}

package ladiff_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ladiff"
	"ladiff/internal/gen"
)

// engineGolden pins one workload class's default-engine run: SHA-256 of
// the three output encodings plus the exact logical and effective work
// counters. The values were captured from the pipeline before matcher
// engines became selectable, at seed 601; engine dispatch must
// reproduce them byte for byte and bit for bit, because the default
// FastMatch path is contractually unchanged by engine selection.
type engineGolden struct {
	class  string
	script string
	delta  string
	marked string
	work   ladiff.WorkStats
	stats  ladiff.MatchStats
}

var engineGoldens = []engineGolden{
	{
		class:  "default-mix",
		script: "4b2646ea8ca9edf8296db58bc080d5f79bbac98044d2942006b637675aaf731f",
		delta:  "bc5ed0894ac532f8579449efc725806feb735001996dd9ee0ef1001a85cebf5c",
		marked: "156b0fe084995e8ee26226885e4f94f959f63a96a5eae45f4cf18f849e47b6c6",
		work:   ladiff.WorkStats{Visits: 156, AlignEquals: 49, PosScans: 98, Ops: 37, EffectivePosScans: 365, EffectiveAlignEquals: 49},
		stats:  ladiff.MatchStats{LeafCompares: 1364, PartnerChecks: 971, EffectiveLeafCompares: 1364},
	},
	{
		class:  "wide-flat",
		script: "93e5f9c84044a3b84cd1bc70a4d106246ca73436e670b1e8efe08fdc95a6f1c8",
		delta:  "462aed8326a923368710e91c8bf7c0bcff8987271023369517f35c3bef433384",
		marked: "d06326f4d429fc643917323b171f7758bac92cdbd03405c2871109f695d3ab1a",
		work:   ladiff.WorkStats{Visits: 377, AlignEquals: 0, PosScans: 12199, Ops: 220, EffectivePosScans: 3430, EffectiveAlignEquals: 0},
		stats:  ladiff.MatchStats{LeafCompares: 21235, PartnerChecks: 2313, EffectiveLeafCompares: 21235},
	},
	{
		class:  "near-duplicates",
		script: "d714c40e9e3b755c0a262bdbaf56c825aa9b26c50121db18388b60d0247872c7",
		delta:  "b76b125d8f4688d9e188435da4c5861db5a821f5015191c408e8f9b2ea8eea9b",
		marked: "414799de984ccbba9b1767213862c32c4e0f11187806b43a99a8696762b286b7",
		work:   ladiff.WorkStats{Visits: 168, AlignEquals: 58, PosScans: 120, Ops: 43, EffectivePosScans: 407, EffectiveAlignEquals: 58},
		stats:  ladiff.MatchStats{LeafCompares: 1172, PartnerChecks: 819, EffectiveLeafCompares: 1172},
	},
	{
		class:  "move-heavy",
		script: "04590c454e3f5ac7dd04aeef0c311e41cb940913eb47fb07b814463ed0053627",
		delta:  "eb1fec73f7a18b9a3518643a9f95ba5efc493730ec214c97a03079a3b32e56d5",
		marked: "68da6cf53720aaf8d3dc5cf617f6ab410009df721f47a3b58d6b0ce75ec8b463",
		work:   ladiff.WorkStats{Visits: 153, AlignEquals: 34, PosScans: 236, Ops: 56, EffectivePosScans: 567, EffectiveAlignEquals: 34},
		stats:  ladiff.MatchStats{LeafCompares: 1275, PartnerChecks: 2008, EffectiveLeafCompares: 1275},
	},
	{
		class:  "insert-delete-heavy",
		script: "76a8aa084e6a0684710ef7934501636ae98986172edeb4236c36688a96d573d3",
		delta:  "da9f63bdc25191d699f6eca7b9d217c615ce5efc929241c14bc797bcb6b1bfeb",
		marked: "06482224930e3c7adb5a4f729bf6324ec7eda1a56facd2fe6e523d8f71300ead",
		work:   ladiff.WorkStats{Visits: 159, AlignEquals: 48, PosScans: 107, Ops: 38, EffectivePosScans: 337, EffectiveAlignEquals: 48},
		stats:  ladiff.MatchStats{LeafCompares: 499, PartnerChecks: 541, EffectiveLeafCompares: 499},
	},
	{
		class:  "update-heavy",
		script: "dfac73bdb4fbd2691ae02f9dd97299ba2c2ccb28469031279437ee0702802525",
		delta:  "98e3250f48a7320f13cf5c6f5616ecb330e70758ebe76d71464b927cb2e24194",
		marked: "910ab118517a9147b55feb6bc67aa53c333360f3a76f4ac4d5753189caffbd11",
		work:   ladiff.WorkStats{Visits: 164, AlignEquals: 40, PosScans: 124, Ops: 52, EffectivePosScans: 349, EffectiveAlignEquals: 40},
		stats:  ladiff.MatchStats{LeafCompares: 734, PartnerChecks: 690, EffectiveLeafCompares: 734},
	},
	{
		class:  "sparse-1pct",
		script: "a07a04cfb4bcc8b3e9dd6147a74726462b725cd6cc72206d49738bce4777525d",
		delta:  "0948765d69e8e10d9f42a039fd6bd607e836b8a835f6af70745ee66e9508bc15",
		marked: "5825b3e901ec1662f280fc936af0ab463e0b7ad89de7e2369878d8fe1f92b359",
		work:   ladiff.WorkStats{Visits: 10533, AlignEquals: 5228, PosScans: 149, Ops: 49, EffectivePosScans: 722, EffectiveAlignEquals: 5228},
		stats:  ladiff.MatchStats{LeafCompares: 9179, PartnerChecks: 25865, EffectiveLeafCompares: 9179},
	},
}

func sha(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }

// TestEngineGoldenDefaultPath is the engine refactor's backstop: for
// every workload class, the default-engine (FastMatch) pipeline must
// reproduce the pre-refactor outputs exactly — script JSON, delta JSON
// and marked LaTeX byte-identical (pinned by SHA-256), WorkStats and
// MatchStats bit-identical. Any change to these goldens means the
// default path changed behaviour, which is a bug in a "pluggable
// engines" PR by definition.
func TestEngineGoldenDefaultPath(t *testing.T) {
	classes := gen.Classes()
	if len(classes) != len(engineGoldens) {
		t.Fatalf("gen.Classes() has %d classes, goldens pin %d — recapture the goldens", len(classes), len(engineGoldens))
	}
	for i, c := range classes {
		g := engineGoldens[i]
		t.Run(c.Name, func(t *testing.T) {
			if c.Name != g.class {
				t.Fatalf("class order changed: got %q, golden %q", c.Name, g.class)
			}
			oldT, pert := genPair(t, c, 601)
			run := diffOnce(t, oldT, pert.New, context.Background())
			if got := sha(run.script); got != g.script {
				t.Errorf("script hash %s, want %s", got, g.script)
			}
			if got := sha(run.delta); got != g.delta {
				t.Errorf("delta hash %s, want %s", got, g.delta)
			}
			if got := sha(run.marked); got != g.marked {
				t.Errorf("marked hash %s, want %s", got, g.marked)
			}
			if run.work != g.work {
				t.Errorf("WorkStats %+v, want %+v", run.work, g.work)
			}
			if run.stats != g.stats {
				t.Errorf("MatchStats %+v, want %+v", run.stats, g.stats)
			}
		})
	}
}

// BenchmarkEngineGoldenDefault keeps the golden battery wired into the
// benchmark smoke: one default-engine run of the first pinned class.
// CI runs it at -benchtime 1x purely to keep the path compiling and
// exercised alongside the other smokes.
func BenchmarkEngineGoldenDefault(b *testing.B) {
	c := gen.Classes()[0]
	doc := c.Doc
	doc.Seed = 601
	oldT := gen.Document(doc)
	pert, err := gen.Perturb(oldT, c.Pert(602))
	if err != nil {
		b.Fatalf("Perturb: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ladiff.Diff(oldT, pert.New, ladiff.Options{}); err != nil {
			b.Fatalf("Diff: %v", err)
		}
	}
}

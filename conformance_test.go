package ladiff_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"unicode/utf8"

	"ladiff"
	"ladiff/internal/conformance"
	"ladiff/internal/fault"
	"ladiff/internal/gen"
)

// TestConformance is the cross-surface conformance matrix
// (internal/conformance): every workload on every surface but the CLI,
// under every knob that applies, against the library reference; then
// the refused inputs on every HTTP surface.
func TestConformance(t *testing.T) {
	h := conformance.NewHarness(t)
	matrix(t, h, conformance.Surfaces)
	for _, err := range h.ErrorCells() {
		t.Error(err)
	}
}

// Columns of the matrix under the names of the batteries it replaced,
// so their test IDs stay stable: the library under one knob family
// each, and /v1/diff on the explicitly configured server and on the
// router's zero-config replicas.
func TestObsTraceInvariance(t *testing.T)           { matrix(t, nil, nil, "obs-traced", "obs-untraced") }
func TestObsTraceInvarianceUnderFault(t *testing.T) { matrix(t, nil, nil, "gen-index") }
func TestDisabledInjectionIsByteIdentical(t *testing.T) {
	matrix(t, nil, nil, "fault", "fault-after")
}
func TestFingerprintDisabledInvariance(t *testing.T)  { matrix(t, nil, nil, "warm-fp") }
func TestFingerprintPrunedCorrectness(t *testing.T)   { matrix(t, nil, nil, "prune") }
func TestFingerprintStalenessAfterPatch(t *testing.T) { matrix(t, nil, nil, "prune", "warm-fp") }
func TestFingerprintZSCrossCheck(t *testing.T)        { matrix(t, nil, nil, "zs-prune") }
func TestServerDefaultsMatchExplicitKnobs(t *testing.T) {
	matrix(t, conformance.NewHarness(t), []string{"diff", "routed-diff"}, "default")
}

// matrix runs the cells of surfaces (nil: the library alone) under
// knobs (none: all) for every workload.
func matrix(t *testing.T, h *conformance.Harness, surfaces []string, knobs ...string) {
	if surfaces == nil {
		surfaces = []string{"library"}
	}
	for _, p := range conformance.Workloads() {
		t.Run(p.Name, func(t *testing.T) {
			refs, err := conformance.References(p)
			if err == nil {
				err = refs.PruneCosts()
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range surfaces {
				t.Run(s, func(t *testing.T) {
					for _, k := range conformance.Knobs() {
						if !k.Applies(s, p) || knobs != nil && !slices.Contains(knobs, k.Name) {
							continue
						}
						t.Run(k.Name, func(t *testing.T) {
							if err := conformance.Cell(s, p, k, refs, h.Run); err != nil {
								t.Error(err)
							}
						})
					}
				})
			}
		})
	}
}

// TestEngineGoldenDefaultPath pins each gen class's default run on the
// gen trees themselves (seeds 601/602), as captured before matcher
// engines became selectable: SHA-256 of the script, delta and marked
// LaTeX bytes, and the exact WorkStats and MatchStats.
func TestEngineGoldenDefaultPath(t *testing.T) {
	for _, c := range gen.Classes() {
		t.Run(c.Name, func(t *testing.T) {
			g, ok := engineGoldens[c.Name]
			oldT, newT := conformance.GenPair(c)
			run, err := conformance.DiffTrees(context.Background(), "latex", oldT, newT, conformance.Knob{})
			if !ok || err != nil {
				t.Fatalf("no golden for the class, or %v", err)
			}
			got := [3]string{sha(run.Script), sha(run.Delta), sha([]byte(run.Marked))}
			if got != [3]string{g.script, g.delta, g.marked} || *run.Work != g.work || *run.Match != g.stats {
				t.Errorf("got %v %+v %+v\nwant %v %+v", got, *run.Work, *run.Match, g, g.work)
			}
		})
	}
}

func sha(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }

var engineGoldens = map[string]struct {
	script, delta, marked string
	work                  ladiff.WorkStats
	stats                 ladiff.MatchStats
}{
	"default-mix": {"4b2646ea8ca9edf8296db58bc080d5f79bbac98044d2942006b637675aaf731f",
		"bc5ed0894ac532f8579449efc725806feb735001996dd9ee0ef1001a85cebf5c",
		"156b0fe084995e8ee26226885e4f94f959f63a96a5eae45f4cf18f849e47b6c6",
		ladiff.WorkStats{Visits: 156, AlignEquals: 49, PosScans: 98, Ops: 37, EffectivePosScans: 365, EffectiveAlignEquals: 49},
		ladiff.MatchStats{LeafCompares: 1364, PartnerChecks: 971, EffectiveLeafCompares: 1364}},
	"wide-flat": {"93e5f9c84044a3b84cd1bc70a4d106246ca73436e670b1e8efe08fdc95a6f1c8",
		"462aed8326a923368710e91c8bf7c0bcff8987271023369517f35c3bef433384",
		"d06326f4d429fc643917323b171f7758bac92cdbd03405c2871109f695d3ab1a",
		ladiff.WorkStats{Visits: 377, AlignEquals: 0, PosScans: 12199, Ops: 220, EffectivePosScans: 3430, EffectiveAlignEquals: 0},
		ladiff.MatchStats{LeafCompares: 21235, PartnerChecks: 2313, EffectiveLeafCompares: 21235}},
	"near-duplicates": {"d714c40e9e3b755c0a262bdbaf56c825aa9b26c50121db18388b60d0247872c7",
		"b76b125d8f4688d9e188435da4c5861db5a821f5015191c408e8f9b2ea8eea9b",
		"414799de984ccbba9b1767213862c32c4e0f11187806b43a99a8696762b286b7",
		ladiff.WorkStats{Visits: 168, AlignEquals: 58, PosScans: 120, Ops: 43, EffectivePosScans: 407, EffectiveAlignEquals: 58},
		ladiff.MatchStats{LeafCompares: 1172, PartnerChecks: 819, EffectiveLeafCompares: 1172}},
	"move-heavy": {"04590c454e3f5ac7dd04aeef0c311e41cb940913eb47fb07b814463ed0053627",
		"eb1fec73f7a18b9a3518643a9f95ba5efc493730ec214c97a03079a3b32e56d5",
		"68da6cf53720aaf8d3dc5cf617f6ab410009df721f47a3b58d6b0ce75ec8b463",
		ladiff.WorkStats{Visits: 153, AlignEquals: 34, PosScans: 236, Ops: 56, EffectivePosScans: 567, EffectiveAlignEquals: 34},
		ladiff.MatchStats{LeafCompares: 1275, PartnerChecks: 2008, EffectiveLeafCompares: 1275}},
	"insert-delete-heavy": {"76a8aa084e6a0684710ef7934501636ae98986172edeb4236c36688a96d573d3",
		"da9f63bdc25191d699f6eca7b9d217c615ce5efc929241c14bc797bcb6b1bfeb",
		"06482224930e3c7adb5a4f729bf6324ec7eda1a56facd2fe6e523d8f71300ead",
		ladiff.WorkStats{Visits: 159, AlignEquals: 48, PosScans: 107, Ops: 38, EffectivePosScans: 337, EffectiveAlignEquals: 48},
		ladiff.MatchStats{LeafCompares: 499, PartnerChecks: 541, EffectiveLeafCompares: 499}},
	"update-heavy": {"dfac73bdb4fbd2691ae02f9dd97299ba2c2ccb28469031279437ee0702802525",
		"98e3250f48a7320f13cf5c6f5616ecb330e70758ebe76d71464b927cb2e24194",
		"910ab118517a9147b55feb6bc67aa53c333360f3a76f4ac4d5753189caffbd11",
		ladiff.WorkStats{Visits: 164, AlignEquals: 40, PosScans: 124, Ops: 52, EffectivePosScans: 349, EffectiveAlignEquals: 40},
		ladiff.MatchStats{LeafCompares: 734, PartnerChecks: 690, EffectiveLeafCompares: 734}},
	"sparse-1pct": {"a07a04cfb4bcc8b3e9dd6147a74726462b725cd6cc72206d49738bce4777525d",
		"0948765d69e8e10d9f42a039fd6bd607e836b8a835f6af70745ee66e9508bc15",
		"5825b3e901ec1662f280fc936af0ab463e0b7ad89de7e2369878d8fe1f92b359",
		ladiff.WorkStats{Visits: 10533, AlignEquals: 5228, PosScans: 149, Ops: 49, EffectivePosScans: 722, EffectiveAlignEquals: 5228},
		ladiff.MatchStats{LeafCompares: 9179, PartnerChecks: 25865, EffectiveLeafCompares: 9179}},
}

func TestInjectionDisabledByDefault(t *testing.T) {
	if fault.Active() || fault.Hits() != nil {
		t.Fatal("fault injection active without any plan armed")
	}
}

// FuzzConformance runs one cell of the matrix on a fuzzed text pair:
// surface and knob pick the column. A pair that is not valid UTF-8,
// which a JSON string cannot carry, runs the refusal cell instead (see
// InvalidUTF8Cell): the library diffs the raw bytes, and every HTTP
// surface refuses the pair rather than diff a document in which each
// invalid byte became U+FFFD. PruneCosts holds on the workload table
// only, so it is not asked here.
func FuzzConformance(f *testing.F) {
	f.Add("One two three. Four five.", "One two three. Four five six.", uint8(1), uint8(0))
	f.Add("A b. C d.\n\nE f g.", "E f g.\n\nA b. C d.", uint8(2), uint8(6))
	f.Add("Same words here.", "Same words here.", uint8(7), uint8(0))
	f.Add("Alpha beta.", "Gamma delta.", uint8(7), uint8(0))
	f.Add("Alpha \xce beta.", "Alpha beta.", uint8(1), uint8(0))
	h := conformance.NewHarness(f)
	knobs := conformance.Knobs()
	f.Fuzz(func(t *testing.T, oldText, newText string, surface, knob uint8) {
		p := conformance.Pair{Name: "fuzz", Format: "text", Old: oldText, New: newText}
		s, k := conformance.Surfaces[int(surface)%len(conformance.Surfaces)], knobs[int(knob)%len(knobs)]
		if !utf8.ValidString(oldText) || !utf8.ValidString(newText) {
			if err := h.InvalidUTF8Cell(s, p); err != nil {
				t.Errorf("%s: %v", s, err)
			}
			return
		}
		if !k.Applies(s, p) {
			return
		}
		refs, err := conformance.References(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.Cell(s, p, k, refs, h.Run); err != nil {
			t.Errorf("%s/%s: %v", s, k.Name, err)
		}
	})
}

// TestInvalidUTF8 runs the refusal cell of a pair holding the lone byte
// 0xCE on every surface.
func TestInvalidUTF8(t *testing.T) {
	h := conformance.NewHarness(t)
	p := conformance.Pair{Name: "invalid-utf8", Format: "text",
		Old: "Alpha beta gamma. Delta \xce epsilon.", New: "Alpha beta gamma. Delta \xce epsilon zeta."}
	for _, s := range conformance.Surfaces {
		if err := h.InvalidUTF8Cell(s, p); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

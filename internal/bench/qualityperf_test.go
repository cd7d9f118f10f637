package bench_test

import (
	"math"
	"testing"

	"ladiff/internal/bench"
)

// TestQualityPerfFastRatioPinned pins the FastMatch cost ratio of the
// E14 frontier per workload class. The ratios are deterministic (fixed
// seeds, integer-valued aligned costs), so a drift here means the
// default pipeline's matching quality changed — intentional changes
// must update the pins alongside BENCH_quality.json.
func TestQualityPerfFastRatioPinned(t *testing.T) {
	report, err := bench.CollectQualityPerf(1, []int{})
	if err != nil {
		t.Fatal(err)
	}
	// The ratios are against the ZS distance, which bounds the
	// paper-model optimum neither way: below 1.0 where its op set prices
	// a move as delete+insert (2) and the script pays 1, above it also
	// where Criterion 2 rebuilds a node the ZS mapping keeps.
	want := map[string]float64{
		"default-mix":         0.96,
		"wide-flat":           0.61,
		"near-duplicates":     0.71,
		"move-heavy":          1.13,
		"insert-delete-heavy": 2.00,
		"update-heavy":        1.39,
		"sparse-1pct-s8":      1.00,
		"right-comb-101":      4.11,
		"right-comb-201":      1.77,
	}
	seen := map[string]bool{}
	for _, r := range report.Rows {
		if r.OldNodes == 0 || r.NewNodes == 0 || r.OptimalCost <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		switch r.Engine {
		case "fast":
			pin, ok := want[r.Class]
			if !ok {
				t.Fatalf("unexpected class %q (update the pins?)", r.Class)
			}
			seen[r.Class] = true
			if math.Abs(r.CostRatio-pin) > 0.02 {
				t.Errorf("%s: fast cost ratio = %.3f, pinned %.2f", r.Class, r.CostRatio, pin)
			}
		case "zs":
			// On move-free workloads the optimal-mapping engine must hit
			// the oracle exactly — §8's "A(3) gap stays at 1.0".
			switch r.Class {
			case "insert-delete-heavy", "update-heavy", "sparse-1pct-s8":
				if r.CostRatio != 1 {
					t.Errorf("%s: zs cost ratio = %.3f, want exactly 1.0", r.Class, r.CostRatio)
				}
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("saw fast rows for %d classes, want %d", len(seen), len(want))
	}
}

package bench

import (
	"strings"
	"testing"

	"ladiff/internal/zs"
)

// TestQualityPairsSides pins the sibling order E14's zs rows run in:
// only the right-deep combs run mirrored, so every document class keeps
// the left order's mapping and its BENCH_quality.json costs.
func TestQualityPairsSides(t *testing.T) {
	pairs, err := qualityPairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		want := strings.HasPrefix(p.name, "right-comb-")
		if got := zs.Mirrored(p.old, p.new); got != want {
			t.Errorf("%s: mirrored = %v, want %v", p.name, got, want)
		}
	}
}

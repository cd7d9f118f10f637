package latex

import (
	"testing"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/gen"
)

// TestRenderSizeEstimate: on every gen class, Render's output fits the
// size its builder is grown to, so the builder is allocated once, and
// fills at least 85% of it.
func TestRenderSizeEstimate(t *testing.T) {
	for _, c := range gen.Classes() {
		old := gen.Document(c.Doc)
		pert, err := gen.Perturb(old, c.Pert(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Diff(old, pert.New, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dt, err := delta.Build(res)
		if err != nil {
			t.Fatal(err)
		}
		r := &renderer{labels: map[*delta.Node]string{}}
		r.assignMoveLabels(dt.Root)
		estimate := len(markedHead) + r.size + len(markedTail)
		if n := len(Render(dt)); n > estimate || n < estimate*85/100 {
			t.Errorf("%s: output %d bytes, estimate %d (ratio %.3f), want a ratio in [0.85, 1]",
				c.Name, n, estimate, float64(n)/float64(estimate))
		}
	}
}

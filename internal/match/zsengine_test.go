package match

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ladiff/internal/lderr"
)

// TestZSTableGate pins the zs table bound on node counts alone, so no
// table is ever allocated: a sparse-1pct-sized pair (~5k nodes per
// tree, the largest the repository runs through zs) and the largest
// square pair within 2^26 cells pass; one node more per tree, and the
// parse limit's 200k nodes, degrade with an error naming the bound.
func TestZSTableGate(t *testing.T) {
	for _, n := range []int{5100, 8191} {
		if err := gateZSTable(n, n); err != nil {
			t.Errorf("%d×%d nodes: %v", n, n, err)
		}
	}
	for _, n := range []int{8192, 200000} {
		err := gateZSTable(n, n)
		if !errors.Is(err, lderr.ErrDegraded) || !errors.Is(err, ErrZSTableBound) {
			t.Fatalf("%d×%d nodes: err = %v, want a degraded table-bound error", n, n, err)
		}
		if bound := fmt.Sprint(maxZSTableCells); !strings.Contains(err.Error(), bound) {
			t.Errorf("%d×%d nodes: %q does not name the %s-cell bound", n, n, err, bound)
		}
	}
}

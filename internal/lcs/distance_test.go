package lcs

import (
	"math/rand"
	"testing"
)

// referenceDistance computes D = n + m − 2·|LCS| with the quadratic DP.
func referenceDistance[T comparable](a, b []T) int {
	eq := func(i, j int) bool { return a[i] == b[j] }
	return len(a) + len(b) - 2*len(IndicesDP(len(a), len(b), eq))
}

func randomBytes(rng *rand.Rand, n, alphabet int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(alphabet))
	}
	return out
}

// TestDistanceWithinExact cross-checks DistanceWithin against the DP
// distance on random inputs, for caps below, at, and above the true
// distance.
func TestDistanceWithinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		a := randomBytes(rng, rng.Intn(20), 3)
		b := randomBytes(rng, rng.Intn(20), 3)
		want := referenceDistance(a, b)
		eq := func(i, j int) bool { return a[i] == b[j] }
		for _, maxD := range []int{0, want - 1, want, want + 1, len(a) + len(b)} {
			if maxD < 0 {
				continue
			}
			d, ok := DistanceWithin(len(a), len(b), maxD, eq)
			if want <= maxD {
				if !ok || d != want {
					t.Fatalf("DistanceWithin(%q, %q, maxD=%d) = (%d, %v), want (%d, true)",
						a, b, maxD, d, ok, want)
				}
			} else if ok {
				t.Fatalf("DistanceWithin(%q, %q, maxD=%d) = (%d, true), want rejection (true distance %d)",
					a, b, maxD, d, want)
			}
		}
	}
}

// TestDistanceWithinEdgeCases exercises the empty-input and zero-cap
// paths, including the maxD=0 window-sizing regression.
func TestDistanceWithinEdgeCases(t *testing.T) {
	eqNever := func(i, j int) bool { return false }
	eqAlways := func(i, j int) bool { return true }

	if d, ok := DistanceWithin(0, 0, 0, eqNever); !ok || d != 0 {
		t.Errorf("empty vs empty: got (%d, %v), want (0, true)", d, ok)
	}
	if d, ok := DistanceWithin(0, 5, 5, eqNever); !ok || d != 5 {
		t.Errorf("empty vs 5: got (%d, %v), want (5, true)", d, ok)
	}
	if _, ok := DistanceWithin(0, 5, 4, eqNever); ok {
		t.Error("empty vs 5 with cap 4: want rejection")
	}
	// maxD = 0 with equal sequences must succeed in round 0 (this used to
	// index out of the v window before head-room was added).
	if d, ok := DistanceWithin(4, 4, 0, eqAlways); !ok || d != 0 {
		t.Errorf("identical with cap 0: got (%d, %v), want (0, true)", d, ok)
	}
	if _, ok := DistanceWithin(4, 4, 0, eqNever); ok {
		t.Error("disjoint with cap 0: want rejection")
	}
	// Length difference alone exceeds the cap: rejected before searching.
	if _, ok := DistanceWithin(10, 3, 5, eqAlways); ok {
		t.Error("|n-m| = 7 > cap 5: want rejection")
	}
	// An over-large cap is clamped, not trusted.
	if d, ok := DistanceWithin(2, 2, 1000, eqNever); !ok || d != 4 {
		t.Errorf("disjoint with huge cap: got (%d, %v), want (4, true)", d, ok)
	}
}

// TestLengthIndicesMatchesDP cross-checks the forward-only length pass
// against the DP reference.
func TestLengthIndicesMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		a := randomBytes(rng, rng.Intn(30), 4)
		b := randomBytes(rng, rng.Intn(30), 4)
		eq := func(i, j int) bool { return a[i] == b[j] }
		want := len(IndicesDP(len(a), len(b), eq))
		if got := LengthIndices(len(a), len(b), eq); got != want {
			t.Fatalf("LengthIndices(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

// TestIndicesLongSimilarInputs runs the windowed-trace Indices on long
// inputs with small D, where the old full-array-per-round trace would
// allocate O(D·(n+m)); here it checks correctness of the windowed
// backtrack on a size that matters.
func TestIndicesLongSimilarInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 5000
	a := make([]byte, n)
	for i := range a {
		a[i] = byte('a' + i%26)
	}
	b := append([]byte(nil), a...)
	// A handful of scattered edits keeps D small relative to n.
	for i := 0; i < 8; i++ {
		b[rng.Intn(n)] = 'Z'
	}
	eq := func(i, j int) bool { return a[i] == b[j] }
	got := Indices(n, n, eq)
	want := 2*n - referenceDistanceLarge(a, b)
	if 2*len(got) != want {
		t.Fatalf("Indices on long input: LCS length %d, want %d", len(got), want/2)
	}
	// The returned pairs must be strictly increasing and genuinely equal.
	for i, p := range got {
		if a[p.A] != b[p.B] {
			t.Fatalf("pair %d: a[%d]=%q != b[%d]=%q", i, p.A, a[p.A], p.B, b[p.B])
		}
		if i > 0 && (p.A <= got[i-1].A || p.B <= got[i-1].B) {
			t.Fatalf("pair %d not strictly increasing: %v after %v", i, p, got[i-1])
		}
	}
}

// referenceDistanceLarge avoids the O(nm) DP for the long-input test by
// using the (already cross-checked) forward pass.
func referenceDistanceLarge(a, b []byte) int {
	d, ok := DistanceWithin(len(a), len(b), len(a)+len(b), func(i, j int) bool { return a[i] == b[j] })
	if !ok {
		panic("unreachable")
	}
	return d
}

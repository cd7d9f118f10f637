package lcs

import (
	"math/rand"
	"reflect"
	"testing"
)

// snapshotIndices is the Indices this package shipped before its
// snapshots moved into one flat slice: a full-width diagonal array plus
// one separately allocated window per round. Indices must pick exactly
// the pairs it picks, since the matcher and the edit-script generator
// turn them into outputs.
func snapshotIndices(n, m int, equal func(i, j int) bool) []IndexPair {
	if n == 0 || m == 0 {
		return nil
	}
	maxD := n + m
	offset := maxD
	v := make([]int, 2*maxD+1)
	var trace [][]int
	dFinal := -1
outer:
	for d := 0; d <= maxD; d++ {
		trace = append(trace, append([]int(nil), v[offset-d:offset+d+1]...))
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset]
			} else {
				x = v[k-1+offset] + 1
			}
			y := x - k
			for x < n && y < m && equal(x, y) {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				dFinal = d
				break outer
			}
		}
	}
	var rev []IndexPair
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		prev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && prev[k-1+d] < prev[k+1+d]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := prev[prevK+d]
		prevY := prevX - prevK
		sx, sy := prevX+1, prevY
		if prevK == k+1 {
			sx, sy = prevX, prevY+1
		}
		for x > sx || y > sy {
			rev = append(rev, IndexPair{A: x - 1, B: y - 1})
			x--
			y--
		}
		x, y = prevX, prevY
	}
	for x > 0 && y > 0 {
		rev = append(rev, IndexPair{A: x - 1, B: y - 1})
		x--
		y--
	}
	out := make([]IndexPair, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// TestIndicesMatchesSnapshotOracle checks that Indices returns exactly
// the pairs of the per-round-snapshot implementation, for distances that
// stay in its stack array and for ones that spill to the heap.
func TestIndicesMatchesSnapshotOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n, m := rng.Intn(60), rng.Intn(60)
		alphabet := 1 + rng.Intn(8)
		a, b := randomBytes(rng, n, alphabet), randomBytes(rng, m, alphabet)
		if trial%2 == 0 && n > 0 {
			// Near-copies keep D small, inside the stack array.
			b = append([]byte(nil), a...)
			for e := rng.Intn(4); e > 0; e-- {
				b[rng.Intn(len(b))] = 'z'
			}
		}
		eq := func(i, j int) bool { return a[i] == b[j] }
		got, want := Indices(len(a), len(b), eq), snapshotIndices(len(a), len(b), eq)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("Indices(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

// TestDistanceWithinSentenceCapAllocs pins the bounded search to zero
// allocations whenever 2·maxD+3 fits its stack array, which covers the
// caps the matcher's word-LCS leaf compares use on sentences.
func TestDistanceWithinSentenceCapAllocs(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog and runs far away")
	b := []byte("a quick red fox jumped over one lazy dog then ran far off")
	eq := func(i, j int) bool { return a[i] == b[j] }
	for _, maxD := range []int{0, 5, 12, 30} {
		allocs := testing.AllocsPerRun(100, func() { DistanceWithin(len(a), len(b), maxD, eq) })
		if allocs != 0 {
			t.Errorf("DistanceWithin at cap %d: %v allocations, want 0", maxD, allocs)
		}
	}
}

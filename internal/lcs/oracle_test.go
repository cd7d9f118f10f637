package lcs

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// snapshotIndices is the Indices this package shipped before its
// per-round snapshots were packed into shared storage: a full-width
// diagonal array plus one separately allocated window per round. Indices must pick exactly
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

// equalCall is one equal(i, j) call of an LCS search.
type equalCall struct{ i, j int }

// recordedRun runs lcs on a and b, returning its pairs and every call
// it made to the equality predicate, in order.
func recordedRun[T comparable](lcs func(n, m int, equal func(i, j int) bool) []IndexPair, a, b []T) ([]IndexPair, []equalCall) {
	var calls []equalCall
	pairs := lcs(len(a), len(b), func(i, j int) bool {
		calls = append(calls, equalCall{i, j})
		return a[i] == b[j]
	})
	return pairs, calls
}

// checkAgainstOracle requires Indices to return the oracle's pairs and to
// make the oracle's equal calls in the oracle's order: the matcher
// counts those calls (r1), so a reordered search would change outputs.
func checkAgainstOracle[T comparable](t *testing.T, a, b []T) {
	t.Helper()
	got, gotCalls := recordedRun(Indices, a, b)
	want, wantCalls := recordedRun(snapshotIndices, a, b)
	if !slices.Equal(got, want) {
		t.Fatalf("Indices(%v, %v) = %v, want %v", a, b, got, want)
	}
	if !slices.Equal(gotCalls, wantCalls) {
		i := 0
		for i < len(gotCalls) && i < len(wantCalls) && gotCalls[i] == wantCalls[i] {
			i++
		}
		t.Fatalf("Indices(%v, %v): %d equal calls, oracle %d; first difference at call %d",
			a, b, len(gotCalls), len(wantCalls), i)
	}
}

// editedCopy returns a copy of a with subs positions replaced by symbols
// that occur nowhere else and dels positions removed, which puts the
// distance at exactly 2·subs + dels. Symbols are non-negative ints; the
// replacements are negative.
func editedCopy(rng *rand.Rand, a []int, subs, dels int) []int {
	b := slices.Clone(a)
	for i, p := range rng.Perm(len(b))[:subs] {
		b[p] = -1 - i
	}
	for ; dels > 0; dels-- {
		for {
			p := rng.Intn(len(b))
			if b[p] >= 0 {
				b = slices.Delete(b, p, p+1)
				break
			}
		}
	}
	return b
}

// TestIndicesMatchesSnapshotOracle checks that Indices returns exactly
// the pairs of the per-round-snapshot implementation, and makes exactly
// its equal calls in the same order: for distances that stay in the
// stack array, for distances on either side of its edge (D = 20 is the
// last that fits), and for ones that span three and more heap segments.
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
		checkAgainstOracle(t, a, b)
	}
	// Exact distances around the stack array's edge.
	for d := 19; d <= 23; d++ {
		for trial := 0; trial < 20; trial++ {
			a, alphabet := make([]int, 25+rng.Intn(100)), 1+rng.Intn(6)
			for i := range a {
				a[i] = rng.Intn(alphabet)
			}
			b := editedCopy(rng, a, d/2, d%2)
			if got := referenceDistance(a, b); got != d {
				t.Fatalf("edited copy has distance %d, want %d", got, d)
			}
			checkAgainstOracle(t, a, b)
			checkAgainstOracle(t, b, a)
		}
	}
	// Distances of 60 to 130 fill three or four heap segments.
	for trial := 0; trial < 16; trial++ {
		a := make([]int, 200+rng.Intn(300))
		for i := range a {
			a[i] = rng.Intn(2 + trial%6)
		}
		b := editedCopy(rng, a, 30+rng.Intn(35), rng.Intn(2))
		checkAgainstOracle(t, a, b)
	}
	// Unrelated sequences over 2–4 symbols: D of about 100 to 400.
	for trial := 0; trial < 8; trial++ {
		a := randomBytes(rng, 100+rng.Intn(400), 2+trial%3)
		b := randomBytes(rng, 100+rng.Intn(400), 2+trial%3)
		checkAgainstOracle(t, a, b)
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

// TestIndicesAllocs pins what a search allocates: only its result while
// the trace fits the stack array (D ≤ 20), and one block more per heap
// segment beyond it. D = 100 ends in round 101's window, which lies in
// the fourth heap segment (1024, 2048, 4096 and 8192 slots after the
// stack's 512), so that search allocates at most 5 times.
func TestIndicesAllocs(t *testing.T) {
	a := make([]int, 500)
	for i := range a {
		a[i] = i
	}
	for _, c := range []struct{ d, allocs int }{{0, 1}, {20, 1}, {100, 5}} {
		// Replacing every tenth symbol by one found nowhere else adds 2
		// to the distance per replacement.
		b := slices.Clone(a)
		for i := 0; i < c.d/2; i++ {
			b[10*i] = -1 - i
		}
		eq := func(i, j int) bool { return a[i] == b[j] }
		if got := len(a) + len(b) - 2*len(Indices(len(a), len(b), eq)); got != c.d {
			t.Fatalf("test input has distance %d, want %d", got, c.d)
		}
		allocs := testing.AllocsPerRun(20, func() { Indices(len(a), len(b), eq) })
		if allocs > float64(c.allocs) {
			t.Errorf("Indices at D = %d: %v allocations, want at most %d", c.d, allocs, c.allocs)
		}
	}
}

// TestIndicesRejectsInt32Overflow checks that lengths the int32 trace
// cannot hold are refused up front, before any equal call or allocation.
func TestIndicesRejectsInt32Overflow(t *testing.T) {
	big := math.MaxInt32
	big++ // 2^31 (where int has 32 bits, the wrap to a negative length is refused too)
	eq := func(i, j int) bool {
		t.Fatalf("equal(%d, %d) called on a refused input", i, j)
		return false
	}
	for _, nm := range [][2]int{{big, 1}, {1, big}, {big, big}} {
		var msg any
		allocs := testing.AllocsPerRun(1, func() {
			defer func() { msg = recover() }()
			Indices(nm[0], nm[1], eq)
		})
		if s, _ := msg.(string); !strings.Contains(s, "2^31") {
			t.Errorf("Indices(%d, %d) panicked with %v, want the 2^31 length message", nm[0], nm[1], msg)
		}
		if allocs != 0 {
			t.Errorf("Indices(%d, %d) allocated %v times before refusing", nm[0], nm[1], allocs)
		}
	}
}

// FuzzIndices maps two byte strings onto a four-letter alphabet and
// checks Indices against the snapshot oracle (the same pairs and the
// same equal calls in the same order) and against the DP (an LCS of the
// same length). Inputs are cut to 256 symbols, which still reaches
// distances of several heap segments.
func FuzzIndices(f *testing.F) {
	f.Add([]byte(""), []byte("abc"))
	f.Add([]byte("abcbdab"), []byte("bdcaba"))
	f.Add(bytes.Repeat([]byte("a"), 10), bytes.Repeat([]byte("b"), 10)) // D = 20
	f.Add(bytes.Repeat([]byte("a"), 11), bytes.Repeat([]byte("b"), 10)) // D = 21
	f.Add(bytes.Repeat([]byte("ab"), 12), bytes.Repeat([]byte("ba"), 12))
	f.Add(bytes.Repeat([]byte("abcd"), 60), bytes.Repeat([]byte("dcab"), 40))
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		small := func(s []byte) []byte {
			out := make([]byte, min(len(s), 256))
			for i := range out {
				out[i] = s[i] % 4
			}
			return out
		}
		a, b := small(ra), small(rb)
		checkAgainstOracle(t, a, b)
		eq := func(i, j int) bool { return a[i] == b[j] }
		if got, want := len(Indices(len(a), len(b), eq)), len(IndicesDP(len(a), len(b), eq)); got != want {
			t.Fatalf("Indices(%v, %v) has %d pairs, the DP %d", a, b, got, want)
		}
	})
}

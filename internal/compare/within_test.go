package compare

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// collidingWords returns two distinct words that share a bin, found by
// scanning generated words (with 64 bins, 65 words suffice), so that
// tests run the bag bound's collision path.
func collidingWords() (string, string) {
	seen := make(map[uint8]string)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i)
		if prev, ok := seen[wordBin(w)]; ok {
			return prev, w
		}
		seen[wordBin(w)] = w
	}
}

// checkWithin fails t unless Tokens.Within agrees with comparing the full
// WordSliceLCS distance, at a sweep of limits that includes the exact
// distance and its ± 0.01 neighbours.
func checkWithin(t *testing.T, wa, wb []string) {
	t.Helper()
	dist := WordSliceLCS(wa, wb)
	limits := []float64{0, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, dist, dist - 0.01, dist + 0.01}
	ta, tb := tokensOf(wa), tokensOf(wb)
	for _, limit := range limits {
		if limit < 0 {
			continue
		}
		want := dist <= limit
		if got := ta.Within(&tb, limit); got != want {
			t.Fatalf("Within(%v, %v, %v) = %v; WordSliceLCS = %v", wa, wb, limit, got, dist)
		}
	}
}

// TestWordSliceLCSWithinAgrees checks, over random word slices, that the
// bounded predicate Tokens.Within agrees with comparing the full
// WordSliceLCS distance. Two of the words share a bin, so the bag bound
// sees collisions.
func TestWordSliceLCSWithinAgrees(t *testing.T) {
	c1, c2 := collidingWords()
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", c1, c2}
	rng := rand.New(rand.NewSource(29))
	slice := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	// Collision alone: no word is shared, but every bin is.
	checkWithin(t, []string{c1}, []string{c2})
	checkWithin(t, []string{c1, c2, c1}, []string{c2, c1, c2})
	for trial := 0; trial < 2000; trial++ {
		checkWithin(t, slice(rng.Intn(12)), slice(rng.Intn(12)))
	}
}

// TestWordSliceLCSWithinEmpty pins the empty-input conventions of
// Tokens.Within to those of WordSliceLCS: two empties are distance 0,
// one empty is MaxDistance.
func TestWordSliceLCSWithinEmpty(t *testing.T) {
	checkWithin(t, nil, nil)
	checkWithin(t, []string{"a"}, nil)
	checkWithin(t, nil, []string{"a"})
	empty, one := tokensOf(nil), tokensOf([]string{"a"})
	if !empty.Within(&empty, 0) {
		t.Error("empty vs empty within 0: want true")
	}
	if one.Within(&empty, 1) {
		t.Error("nonempty vs empty within 1: want false (distance is 2)")
	}
	if !one.Within(&empty, MaxDistance) {
		t.Error("nonempty vs empty within 2: want true")
	}
}

// TestTokensWithinLimits pins the ends of the limit range, where Within
// answers without comparing words.
func TestTokensWithinLimits(t *testing.T) {
	a, b := Tokenize("one two three"), Tokenize("four five")
	for _, c := range []struct {
		limit float64
		want  bool
	}{{-0.5, false}, {math.NaN(), false}, {MaxDistance, true}, {math.Inf(1), true}} {
		if got := a.Within(&b, c.limit); got != c.want {
			t.Errorf("Within(limit %v) = %v, want %v", c.limit, got, c.want)
		}
	}
}

// TestTokenizeAllocs pins Tokenize at two allocations: the words and
// their bins.
func TestTokenizeAllocs(t *testing.T) {
	s := "the quick brown fox jumps over the lazy dog near the river"
	if n := len(Words(s)); n != 12 {
		t.Fatalf("sentence has %d words, want 12", n)
	}
	var sink Tokens
	if allocs := testing.AllocsPerRun(100, func() { sink = Tokenize(s) }); allocs > 2 {
		t.Errorf("Tokenize: %v allocations, want ≤ 2", allocs)
	}
	_ = sink
}

// FuzzTokensWithin checks Within against the full distance: at the
// fuzzed limit, at the exact distance and at its float neighbours.
func FuzzTokensWithin(f *testing.F) {
	f.Add("the quick brown fox", "the slow brown fox", 0.5)
	f.Add("a b", "a b c d", 0.5)
	f.Add("one\u3000two\u2003three\u00a0four", "one two three four", 0.25)
	f.Add("x\u0085y\vz\fw", "x y z", 1.0)
	f.Add("\xff\xfe bad \xc3", "bad \xc3 \xff", 0.75)
	f.Add("the the the the", "the the", 0.5)
	f.Add("", "word", 2.0)
	f.Add("", "", 0.0)
	f.Fuzz(func(t *testing.T, a, b string, limit float64) {
		dist := WordLCS(a, b)
		ta, tb := Tokenize(a), Tokenize(b)
		for _, l := range []float64{limit, dist, math.Nextafter(dist, -1), math.Nextafter(dist, 3)} {
			if !(l >= 0 && l <= MaxDistance) {
				continue
			}
			if got, want := ta.Within(&tb, l), dist <= l; got != want {
				t.Fatalf("Within(%q, %q, %v) = %v; WordLCS = %v", a, b, l, got, dist)
			}
		}
	})
}

// TestWordLCSMatchesSliceForm pins the refactoring invariant that
// WordLCS(a, b) == WordSliceLCS(Words(a), Words(b)).
func TestWordLCSMatchesSliceForm(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"one", ""},
		{"the quick brown fox", "the slow brown fox"},
		{"a b c d", "d c b a"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%q-%q", c[0], c[1]), func(t *testing.T) {
			if got, want := WordSliceLCS(Words(c[0]), Words(c[1])), WordLCS(c[0], c[1]); got != want {
				t.Errorf("WordSliceLCS = %v, WordLCS = %v", got, want)
			}
		})
	}
}

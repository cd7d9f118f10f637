package compare

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// comparers lists every exported comparer for shared metric-property
// tests.
var comparers = map[string]Func{
	"Exact":         Exact,
	"WordLCS":       WordLCS,
	"FoldedWordLCS": FoldedWordLCS,
	"Levenshtein":   Levenshtein,
	"TokenSet":      TokenSet,
}

func TestRangeAndIdentity(t *testing.T) {
	inputs := []string{
		"", "a", "hello world", "the quick brown fox",
		"repeated repeated repeated", "punctuation, and; stuff!",
	}
	for name, f := range comparers {
		for _, s := range inputs {
			if d := f(s, s); d != 0 {
				t.Errorf("%s(%q,%q) = %v, want 0", name, s, s, d)
			}
			for _, s2 := range inputs {
				d := f(s, s2)
				if d < 0 || d > MaxDistance {
					t.Errorf("%s(%q,%q) = %v outside [0,2]", name, s, s2, d)
				}
			}
		}
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	randSentence := func() string {
		n := rng.Intn(8)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	for name, f := range comparers {
		for i := 0; i < 200; i++ {
			a, b := randSentence(), randSentence()
			if d1, d2 := f(a, b), f(b, a); math.Abs(d1-d2) > 1e-12 {
				t.Fatalf("%s not symmetric: f(%q,%q)=%v, f(%q,%q)=%v", name, a, b, d1, b, a, d2)
			}
		}
	}
}

func TestWordLCSKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"a b c d", "a b c d", 0},
		{"a b c d", "a b c x", 0.5}, // 2 unmatched / 4
		{"a b", "c d", 2},           // nothing shared
		{"a b c d", "a b", 0.5},     // 2 unmatched / 4
		{"a", "", 2},                // empty vs non-empty
		{"", "", 0},                 //
		{"a b c d e f g h", "a b c d e f g x", 0.25},
	}
	for _, c := range cases {
		if got := WordLCS(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WordLCS(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestWordLCSOrderSensitive(t *testing.T) {
	// Word order matters for WordLCS but not for TokenSet.
	a, b := "one two three four", "four three two one"
	if WordLCS(a, b) == 0 {
		t.Fatal("WordLCS should penalize reordering")
	}
	if TokenSet(a, b) != 0 {
		t.Fatal("TokenSet should ignore reordering")
	}
}

func TestFoldedWordLCS(t *testing.T) {
	if d := FoldedWordLCS("Hello, World!", "hello world"); d != 0 {
		t.Fatalf("folded distance = %v, want 0", d)
	}
	if d := WordLCS("Hello, World!", "hello world"); d == 0 {
		t.Fatal("unfolded comparer should see a difference")
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		dist int // raw edit distance
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "abc", 0},
	}
	for _, c := range cases {
		maxLen := len(c.a)
		if len(c.b) > maxLen {
			maxLen = len(c.b)
		}
		want := 0.0
		if maxLen > 0 {
			want = MaxDistance * float64(c.dist) / float64(maxLen)
		}
		if got := Levenshtein(c.a, c.b); math.Abs(got-want) > 1e-12 {
			t.Errorf("Levenshtein(%q,%q) = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestExact(t *testing.T) {
	if Exact("a", "a") != 0 || Exact("a", "b") != MaxDistance {
		t.Fatal("Exact misbehaves")
	}
}

func TestQuickMetricProperties(t *testing.T) {
	// Random word-sequences: range, symmetry, and identity for WordLCS.
	f := func(aw, bw []uint8) bool {
		vocab := []string{"v0", "v1", "v2", "v3"}
		mk := func(xs []uint8) string {
			parts := make([]string, len(xs))
			for i, x := range xs {
				parts[i] = vocab[int(x)%len(vocab)]
			}
			return strings.Join(parts, " ")
		}
		a, b := mk(aw), mk(bw)
		d := WordLCS(a, b)
		return d >= 0 && d <= MaxDistance &&
			math.Abs(WordLCS(b, a)-d) < 1e-12 &&
			WordLCS(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateVsDeleteInsertSemantics(t *testing.T) {
	// §3.2: a small edit should cost < 1 (cheaper to move+update than
	// delete+insert); disjoint values should cost > 1.
	small := WordLCS(
		"the quick brown fox jumps over the lazy dog",
		"the quick brown fox leaps over the lazy dog")
	if small >= 1 {
		t.Fatalf("one-word change costs %v, want < 1", small)
	}
	big := WordLCS("completely different words here", "nothing shared at all whatsoever")
	if big <= 1 {
		t.Fatalf("disjoint sentences cost %v, want > 1", big)
	}
}

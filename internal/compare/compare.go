// Package compare provides the leaf-value comparison functions used by the
// matching criteria and the update cost model of Chawathe et al. (SIGMOD
// 1996).
//
// A comparer is a function returning a distance in [0,2] (§3.2): values
// below 1 mean "similar enough that moving + updating beats deleting +
// reinserting"; values above 1 mean the opposite. Matching Criterion 1
// admits a leaf pair only when the distance is at most a parameter
// f ∈ [0,1], and Matching Criterion 3 asks that at most one counterpart
// lie within distance 1 of any leaf.
package compare

import (
	"strings"
	"unicode"

	"ladiff/internal/lcs"
)

// MaxDistance is the upper end of the distance range returned by
// comparers, per the paper's cost model (§3.2).
const MaxDistance = 2.0

// Func computes the distance between two leaf values, in [0, 2].
type Func func(a, b string) float64

// Exact returns 0 when the values are byte-identical and MaxDistance
// otherwise. It models keyed domains where only exact matches count.
func Exact(a, b string) float64 {
	if a == b {
		return 0
	}
	return MaxDistance
}

// WordLCS is the sentence comparer LaDiff uses (§7): compute the LCS of
// the two values' words, count the words outside the LCS, and normalize.
// The distance is
//
//	(len(a) + len(b) − 2·|LCS|) / max(len(a), len(b))
//
// in words, which lies in [0,2]: 0 for identical word sequences, 2 when no
// word is shared (then the numerator is len(a)+len(b) ≤ 2·max).
func WordLCS(a, b string) float64 {
	wa, wb := Words(a), Words(b)
	return WordSliceLCS(wa, wb)
}

// WordSliceLCS is the token form of WordLCS: the same distance over
// values already split into words, so callers can split each value once
// and reuse the words across many comparisons. WordLCS(a, b) ==
// WordSliceLCS(Words(a), Words(b)) for all inputs.
func WordSliceLCS(wa, wb []string) float64 {
	if len(wa) == 0 && len(wb) == 0 {
		return 0
	}
	if len(wa) == 0 || len(wb) == 0 {
		return MaxDistance
	}
	common := lcs.LengthStrings(wa, wb)
	unmatched := float64(len(wa) + len(wb) - 2*common)
	maxLen := len(wa)
	if len(wb) > maxLen {
		maxLen = len(wb)
	}
	return unmatched / float64(maxLen)
}

// Tokens is a value prepared for many bounded word-LCS comparisons: its
// words (those of Words), a 6-bit hash bin per word, and the mask of the
// bins that occur. Tokenize builds it; Within compares two.
type Tokens struct {
	words []string
	bins  []uint8
	mask  uint64
}

// Tokenize splits s into words and bins each one, in two allocations:
// the words and their bins.
func Tokenize(s string) Tokens { return tokensOf(Words(s)) }

func tokensOf(words []string) Tokens {
	t := Tokens{words: words, bins: make([]uint8, len(words))}
	for i, w := range words {
		t.bins[i] = wordBin(w)
		t.mask |= 1 << t.bins[i]
	}
	return t
}

// wordBin hashes a word into one of 64 bins: 32-bit FNV-1a, xor-folded
// to 6 bits. The hash is fixed (no per-process seed), so which pairs the
// bag bound rejects is the same in every run.
func wordBin(w string) uint8 {
	h := uint32(2166136261)
	for i := 0; i < len(w); i++ {
		h ^= uint32(w[i])
		h *= 16777619
	}
	return uint8((h>>6 ^ h) & 63)
}

// Within reports whether WordSliceLCS(a's words, b's words) ≤ limit
// without always computing the distance. The distance is D / max(n, m)
// where D = n + m − 2·|LCS| is exactly Myers' edit distance, so the
// question is whether D ≤ maxD, the largest integer whose quotient by
// max(n, m) is ≤ limit. Two exact bounds on D answer most pairs first:
//
//   - D ≥ |n − m|;
//   - D ≥ n + m − 2·hits, where hits counts the words of one side whose
//     bin occurs in the other side's mask, in either direction. Each
//     word of the LCS occurs in the other side, so |LCS| ≤ hits; a bin
//     collision only raises hits, letting a dissimilar pair through to
//     the search but never rejecting a pair within limit.
//
// Only the pairs that pass both reach the Myers search, which stops once
// D provably exceeds maxD. Within agrees with WordSliceLCS ≤ limit for
// every input and every limit.
func (a *Tokens) Within(b *Tokens, limit float64) bool {
	n, m := len(a.words), len(b.words)
	switch {
	case limit >= MaxDistance:
		return true
	case !(limit >= 0):
		return false
	case n == 0 && m == 0:
		return true
	case n == 0 || m == 0:
		return false
	}
	maxD := maxEdits(limit, max(n, m))
	if n-m > maxD || m-n > maxD {
		return false
	}
	if n+m-2*hits(a.bins, b.mask) > maxD || n+m-2*hits(b.bins, a.mask) > maxD {
		return false
	}
	_, ok := lcs.DistanceWithin(n, m, maxD, func(i, j int) bool { return a.words[i] == b.words[j] })
	return ok
}

// maxEdits returns the largest d with float64(d)/float64(maxLen) ≤ limit,
// for limit in [0, MaxDistance): the quotient WordSliceLCS computes is
// monotone in d, so D ≤ maxEdits decides D/maxLen ≤ limit exactly.
func maxEdits(limit float64, maxLen int) int {
	d := int(limit * float64(maxLen))
	for d > 0 && float64(d)/float64(maxLen) > limit {
		d--
	}
	for float64(d+1)/float64(maxLen) <= limit {
		d++
	}
	return d
}

// hits counts the words whose bin is set in mask.
func hits(bins []uint8, mask uint64) int {
	h := 0
	for _, k := range bins {
		h += int(mask >> k & 1)
	}
	return h
}

// FoldedWordLCS is WordLCS with case folding and punctuation stripping,
// useful for prose where formatting noise should not count as change.
func FoldedWordLCS(a, b string) float64 {
	return WordSliceLCS(foldWords(a), foldWords(b))
}

func foldWords(s string) []string {
	words := Words(s)
	out := words[:0]
	for _, w := range words {
		w = strings.TrimFunc(w, func(r rune) bool {
			return unicode.IsPunct(r) || unicode.IsSymbol(r)
		})
		if w != "" {
			out = append(out, strings.ToLower(w))
		}
	}
	return out
}

// Words splits a value into whitespace-separated words.
func Words(s string) []string { return strings.Fields(s) }

// Levenshtein returns a character-level edit distance normalized into
// [0,2]: 2·dist / max(len(a), len(b)) over runes. It is an alternative
// comparer for short values (titles, identifiers) where word granularity
// is too coarse.
func Levenshtein(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 0
	}
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	return MaxDistance * float64(levenshtein(ra, rb)) / float64(maxLen)
}

func levenshtein(a, b []rune) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// TokenSet returns a distance based on the Jaccard similarity of the word
// sets: 2·(1 − |A∩B| / |A∪B|). Word order is ignored, so it is cheaper
// than WordLCS and insensitive to reordering within a value.
func TokenSet(a, b string) float64 {
	wa, wb := Words(a), Words(b)
	if len(wa) == 0 && len(wb) == 0 {
		return 0
	}
	set := make(map[string]uint8, len(wa)+len(wb))
	for _, w := range wa {
		set[w] |= 1
	}
	for _, w := range wb {
		set[w] |= 2
	}
	inter := 0
	for _, bits := range set {
		if bits == 3 {
			inter++
		}
	}
	union := len(set)
	if union == 0 {
		return MaxDistance
	}
	return MaxDistance * (1 - float64(inter)/float64(union))
}

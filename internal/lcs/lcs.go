// Package lcs computes longest common subsequences with a caller-supplied
// equality predicate, as required by Algorithm EditScript's AlignChildren
// and Algorithm FastMatch (Chawathe et al., SIGMOD 1996, §4.2 and §5.3).
//
// The primary implementation is Myers' O(ND) greedy algorithm [Mye86],
// which the paper uses and which — unlike the hashing-based LCS in the
// standard UNIX diff — needs only equality comparisons (§7). A quadratic
// dynamic-programming reference implementation is provided for
// cross-checking in tests and for pathological inputs where D approaches
// N.
package lcs

import "math"

// IndexPair records positions of one matched pair: A is an index into the
// first sequence, B into the second.
type IndexPair struct {
	A, B int
}

// LengthIndices is the forward-only counterpart of Indices: it returns
// just the LCS length of the index ranges [0,n) and [0,m) under the
// positional equality predicate. Myers' relation D = n + m − 2·|LCS|
// recovers the length from the first round that reaches (n,m). It keeps
// no trace and does no backtracking, so it allocates O(n+m) at most: the
// call for when the pairs themselves are not needed.
func LengthIndices(n, m int, equal func(i, j int) bool) int {
	d, ok := DistanceWithin(n, m, n+m, equal)
	if !ok {
		// Unreachable: d = n+m always suffices.
		panic("lcs: Myers search did not terminate")
	}
	return (n + m - d) / 2
}

// DistanceWithin runs the forward Myers search with the d-rounds capped
// at maxD. It returns the edit distance D = n + m − 2·|LCS| and true when
// D ≤ maxD, or (0, false) when the distance exceeds the cap — after only
// O((n+m)·maxD) work instead of the O((n+m)·D) a full search would
// spend. Callers that test a similarity threshold rather than needing
// the exact distance (Matching Criterion 1 does exactly that) use the
// cap to reject dissimilar pairs early.
func DistanceWithin(n, m, maxD int, equal func(i, j int) bool) (int, bool) {
	if n == 0 || m == 0 {
		d := n + m
		if d > maxD {
			return 0, false
		}
		return d, true
	}
	// D ≥ |n−m|: the cap is unreachable without entering the search.
	if diff := n - m; diff > maxD || -diff > maxD {
		return 0, false
	}
	if maxD > n+m {
		maxD = n + m
	}
	// One slot of head-room on each side: round d reads diagonals k±1
	// for k ∈ [-d, d], so the window spans [-maxD−1, maxD+1]. Sentence-
	// size caps fit the stack array, so the matcher's many bounded leaf
	// compares allocate nothing.
	offset := maxD + 1
	var stack [64]int
	var v []int
	if size := 2*maxD + 3; size <= len(stack) {
		v = stack[:size]
	} else {
		v = make([]int, size)
	}
	for d := 0; d <= maxD; d++ {
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset] // move down (insert from b)
			} else {
				x = v[k-1+offset] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && equal(x, y) {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				return d, true
			}
		}
	}
	return 0, false
}

// traceStackSlots is the size of Indices' stack segment: rounds 0–21
// fill 22² = 484 of its int32 slots.
const traceStackSlots = 512

// traceSegment is one heap segment of Indices' trace: round d's window
// starts at win[d² − lo²].
type traceSegment struct {
	lo  int // the first round the segment holds
	win []int32
}

// Indices computes an LCS of the index ranges [0,n) and [0,m) under the
// positional equality predicate, returning matched index pairs in
// increasing order. It runs Myers' greedy algorithm in O((n+m)·D) time
// and O(D²) space, where D = n + m − 2·|LCS|. It panics if n or m is
// 2³¹ or more: the trace stores positions as int32.
func Indices(n, m int, equal func(i, j int) bool) []IndexPair {
	if uint64(n) > math.MaxInt32 || uint64(m) > math.MaxInt32 {
		panic("lcs: Indices needs n, m < 2^31 (the trace stores positions as int32)")
	}
	if n == 0 || m == 0 {
		return nil
	}
	// Round d reads, for each diagonal k ∈ [-d, d], the furthest x reached
	// on k±1 by round d−1. The trace keeps one window per round of those
	// values as they stood entering the round (round d−1 wrote at most
	// diagonals ±(d−1), and the backtrack for round d reads only
	// diagonals within ±d), so total trace space is O(D²) instead of the
	// O(D·(n+m)) a full-array snapshot per round would cost. Round d's
	// window holds 2d+1 slots, diagonal k at slot k+d. Round d works in
	// place on the next window, seeded with its own: when the round ends
	// that window is round d+1's, so no separate diagonal array is kept.
	//
	// The windows live in segments that are never grown or copied. The
	// stack array holds rounds 0–21 (22² slots), so a search with D ≤ 20
	// allocates only its result. Each later segment is twice the size of
	// the one before, and the segment that starts at round lo holds round
	// d at slot d² − lo².
	var stack [traceStackSlots]int32
	var heapSegs [8]traceSegment
	segs := heapSegs[:0]
	win, lo := stack[:], 0 // the segment holding round d's window
	at := 0                // round d's window starts at win[at], at = d² − lo²
	dFinal := -1
outer:
	for d := 0; d <= n+m; d++ {
		prev := win[at : at+2*d+1]
		at += 2*d + 1
		if at+2*d+3 > len(win) {
			seg := make([]int32, 2*len(win))
			segs = append(segs, traceSegment{lo: d + 1, win: seg})
			win, lo, at = seg, d+1, 0
		}
		// The edge slots (diagonals ±(d+1)) stay zero: round d does not
		// read them, and the backtrack never reads a window's edges.
		v := win[at : at+2*d+3]
		copy(v[1:], prev)
		off := d + 1 // v[k+off] is the furthest x on diagonal k
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+off] < v[k+1+off]) {
				x = int(v[k+1+off]) // move down (insert from b)
			} else {
				x = int(v[k-1+off]) + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && equal(x, y) {
				x++
				y++
			}
			v[k+off] = int32(x)
			if x >= n && y >= m {
				dFinal = d
				break outer
			}
		}
	}
	if dFinal < 0 {
		// Unreachable: d = n+m always suffices.
		panic("lcs: Myers search did not terminate")
	}

	// Backtrack through the per-round windows, collecting the diagonal
	// (snake) steps, which are exactly the LCS matches, last first. Round
	// d's window holds the values round d read, indexed by k+d for
	// diagonal k ∈ [-d, d]. The LCS has (n+m−D)/2 pairs.
	rev := make([]IndexPair, 0, (n+m-dFinal)/2)
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		if d < lo { // round d lives in the segment before
			segs = segs[:len(segs)-1]
			win, lo = stack[:], 0
			if len(segs) > 0 {
				win, lo = segs[len(segs)-1].win, segs[len(segs)-1].lo
			}
		}
		prev := win[d*d-lo*lo : d*d-lo*lo+2*d+1]
		k := x - y
		var prevK int
		if k == -d || (k != d && prev[k-1+d] < prev[k+1+d]) {
			prevK = k + 1 // reached via a down-move (element of b skipped)
		} else {
			prevK = k - 1 // reached via a right-move (element of a skipped)
		}
		prevX := int(prev[prevK+d])
		prevY := prevX - prevK
		// Position immediately after round d's single non-diagonal step:
		var sx, sy int
		if prevK == k+1 {
			sx, sy = prevX, prevY+1
		} else {
			sx, sy = prevX+1, prevY
		}
		// The snake from (sx,sy) to (x,y) is all matches.
		for x > sx || y > sy {
			rev = append(rev, IndexPair{A: x - 1, B: y - 1})
			x--
			y--
		}
		x, y = prevX, prevY
	}
	// d == 0: the remaining prefix is one pure snake back to the origin.
	for x > 0 && y > 0 {
		rev = append(rev, IndexPair{A: x - 1, B: y - 1})
		x--
		y--
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// IndicesDP is a quadratic dynamic-programming LCS used as a correctness
// reference for Indices and for callers that prefer predictable O(nm)
// behaviour on tiny inputs.
func IndicesDP(n, m int, equal func(i, j int) bool) []IndexPair {
	if n == 0 || m == 0 {
		return nil
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if equal(i, j) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out []IndexPair
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case equal(i, j):
			out = append(out, IndexPair{A: i, B: j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

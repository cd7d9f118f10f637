package zs_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// randTree builds a random tree of up to maxN nodes with a small
// label/value alphabet, so collisions (equal labels, equal values) are
// frequent and the distance recursions face real ties.
func randTree(r *rand.Rand, maxN int) *tree.Tree {
	labels := []tree.Label{"a", "b", "c"}
	n := 1 + r.Intn(maxN)
	t := tree.NewWithRoot(labels[r.Intn(len(labels))], "")
	nodes := []*tree.Node{t.Root()}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		nd := t.AppendChild(parent, labels[r.Intn(len(labels))], string(rune('0'+r.Intn(3))))
		nodes = append(nodes, nd)
	}
	return t
}

// solveSide runs the DP in the given sibling order, bypassing the
// automatic choice, and returns the distance and one optimal mapping.
func solveSide(t *testing.T, t1, t2 *tree.Tree, c zs.Costs, mirrored bool) (float64, []zs.MapPair) {
	t.Helper()
	d, pairs, err := zs.SolveSide(t1, t2, c, mirrored)
	if err != nil {
		t.Fatal(err)
	}
	return d, pairs
}

// checkCertificate asserts pairs is a [ZS89] mapping — one-to-one,
// ancestor- and order-preserving — whose implied cost is d (within
// tol), listed in the post-order of the side's layout.
func checkCertificate(t *testing.T, t1, t2 *tree.Tree, c zs.Costs, mirrored bool, pairs []zs.MapPair, d, tol float64) {
	t.Helper()
	checkOrder(t, zs.LayoutOrder(t1, mirrored), zs.LayoutOrder(t2, mirrored), pairs)
	cost := 0.0
	seen1, seen2 := map[*tree.Node]bool{}, map[*tree.Node]bool{}
	for k, p := range pairs {
		if seen1[p.Old] || seen2[p.New] {
			t.Fatalf("mapping not one-to-one at (%v, %v)", p.Old, p.New)
		}
		seen1[p.Old], seen2[p.New] = true, true
		cost += c.Relabel(p.Old, p.New)
		for _, q := range pairs[:k] {
			if tree.IsAncestor(q.Old, p.Old) != tree.IsAncestor(q.New, p.New) ||
				tree.IsAncestor(p.Old, q.Old) != tree.IsAncestor(p.New, q.New) {
				t.Fatalf("ancestry not preserved: (%v,%v) vs (%v,%v)", q.Old, q.New, p.Old, p.New)
			}
		}
	}
	t1.Walk(func(n *tree.Node) bool {
		if !seen1[n] {
			cost += c.Delete(n)
		}
		return true
	})
	t2.Walk(func(n *tree.Node) bool {
		if !seen2[n] {
			cost += c.Insert(n)
		}
		return true
	})
	if math.Abs(cost-d) > tol {
		t.Fatalf("mirrored=%v: mapping implies cost %v, distance is %v", mirrored, cost, d)
	}
}

// checkOrder asserts pairs run in order1 on the old side and order2 on
// the new side; strictly increasing on both also rules out crossings.
func checkOrder(t *testing.T, order1, order2 []*tree.Node, pairs []zs.MapPair) {
	t.Helper()
	pos1, pos2 := map[*tree.Node]int{}, map[*tree.Node]int{}
	for i, n := range order1 {
		pos1[n] = i
	}
	for i, n := range order2 {
		pos2[n] = i
	}
	for k := 1; k < len(pairs); k++ {
		if pos1[pairs[k-1].Old] >= pos1[pairs[k].Old] || pos2[pairs[k-1].New] >= pos2[pairs[k].New] {
			t.Fatalf("pairs %d and %d out of order or crossing", k-1, k)
		}
	}
}

// checkSides asserts both sibling orders give the same distance (within
// tol; 0 demands equality) and a valid mapping that costs it.
func checkSides(t *testing.T, t1, t2 *tree.Tree, c zs.Costs, tol float64) {
	t.Helper()
	dl, pl := solveSide(t, t1, t2, c, false)
	dm, pm := solveSide(t, t1, t2, c, true)
	if math.Abs(dl-dm) > tol {
		t.Fatalf("left distance %v != mirrored %v\nold:\n%s\nnew:\n%s", dl, dm, t1, t2)
	}
	checkCertificate(t, t1, t2, c, false, pl, dl, 1e-9)
	checkCertificate(t, t1, t2, c, true, pm, dm, 1e-9)
}

// TestSidesAgreeOnSmallTrees is the side battery's random half:
// thousands of tree pairs of ≤ 12 nodes, both orders exactly equal
// under unit costs (integer sums are exact), each with a
// cost-consistent mapping.
func TestSidesAgreeOnSmallTrees(t *testing.T) {
	r := rand.New(rand.NewSource(4111))
	for i := 0; i < 2000; i++ {
		checkSides(t, randTree(r, 12), randTree(r, 12), zs.UnitCosts(), 0)
	}
}

// TestSidesAgreeOnClasses is the battery's document half: the standard
// workload classes at their real sizes, under unit costs (exact) and
// under MatchingCosts with the word-LCS comparer, whose fractional
// relabels sum in a different order per side (±1 ulp). sparse-1pct is
// excluded: at ~5000 nodes per tree its tables alone take ~400 MB.
func TestSidesAgreeOnClasses(t *testing.T) {
	for _, c := range gen.Classes() {
		if c.Name == "sparse-1pct" {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			dp := c.Doc
			dp.Seed = 601
			doc := gen.Document(dp)
			pert, err := gen.Perturb(doc, c.Pert(602))
			if err != nil {
				t.Fatal(err)
			}
			checkSides(t, doc, pert.New, zs.UnitCosts(), 0)
			checkSides(t, doc, pert.New, zs.MatchingCosts(compare.WordLCS), 1e-9)
		})
	}
}

// TestSidesNonUnitCosts: expensive relabels flip optimal mappings
// toward delete+insert; under these integer costs both orders must
// still agree exactly.
func TestSidesNonUnitCosts(t *testing.T) {
	costs := zs.Costs{
		Insert: func(*tree.Node) float64 { return 1 },
		Delete: func(*tree.Node) float64 { return 2 },
		Relabel: func(a, b *tree.Node) float64 {
			if a.Label() != b.Label() || a.Value() != b.Value() {
				return 3
			}
			return 0
		},
	}
	r := rand.New(rand.NewSource(4112))
	for i := 0; i < 500; i++ {
		checkSides(t, randTree(r, 10), randTree(r, 10), costs, 0)
	}
}

// TestBruteForceCrossCheck compares both orders against distances found
// by exhaustive search over the [ZS89] operation space on tiny trees
// (relabel-to-target-values and leaf-level inserts/deletes, which is
// sufficient for these shapes).
func TestBruteForceCrossCheck(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"r\n  a \"1\"", "r\n  a \"1\"", 0},
		{"r\n  a \"1\"", "r\n  a \"2\"", 1},
		{"r\n  a \"1\"\n  b \"2\"", "r\n  b \"2\"\n  a \"1\"", 2}, // swap = delete+insert (no moves in ZS)
		{"r\n  a \"1\"\n  a \"2\"\n  a \"3\"", "r\n  a \"3\"\n  a \"1\"\n  a \"2\"", 2},
		{"r", "r\n  a\n    b", 2},
	}
	for _, c := range cases {
		a, b := tree.MustParse(c.a), tree.MustParse(c.b)
		for _, mirrored := range []bool{false, true} {
			if d, _ := solveSide(t, a, b, zs.UnitCosts(), mirrored); d != c.want {
				t.Errorf("mirrored=%v: distance(%q,%q) = %v, want %v", mirrored, c.a, c.b, d, c.want)
			}
		}
	}
}

// FuzzZSSides drives the side battery from fuzzer-chosen seeds: each
// input deterministically generates a small tree pair, and the two
// sibling orders must agree exactly on distance with cost-consistent
// mappings. The property is total (any seed is valid), so the fuzzer
// explores tree shapes by exploring the seed space.
func FuzzZSSides(f *testing.F) {
	f.Add(int64(1), uint64(8), uint64(12))
	f.Add(int64(2), uint64(1), uint64(1))
	f.Add(int64(3), uint64(12), uint64(12))
	f.Add(int64(4), uint64(2), uint64(11))
	f.Add(int64(5), uint64(7), uint64(3))
	f.Fuzz(func(t *testing.T, seed int64, size1, size2 uint64) {
		r := rand.New(rand.NewSource(seed))
		n1 := int(size1%12) + 1
		n2 := int(size2%12) + 1
		checkSides(t, randTree(r, n1), randTree(r, n2), zs.UnitCosts(), 0)
	})
}

// spineTree builds a tree of k spine nodes, each holding one or two
// leaves; place(d) says where depth d's spine child goes among them.
func spineTree(k int, place func(d int) string) *tree.Tree {
	t := tree.NewWithRoot("s", "")
	spine := t.Root()
	for d := 0; d < k; d++ {
		leaf := func() { t.AppendChild(spine, "l", fmt.Sprint(d)) }
		var next *tree.Node
		switch place(d) {
		case "right":
			leaf()
			next = t.AppendChild(spine, "s", "")
		case "left":
			next = t.AppendChild(spine, "s", "")
			leaf()
		case "centre":
			leaf()
			next = t.AppendChild(spine, "s", "")
			leaf()
		}
		spine = next
	}
	return t
}

// TestSideChoice pins where the DP runs mirrored: right-deep combs
// from 11 nodes up; never left combs, zigzags, centre spines, or any
// pair of the standard workload classes (whose mappings — and so the
// goldens and BENCH_quality.json — must not change).
func TestSideChoice(t *testing.T) {
	for leaves := 5; leaves <= 100; leaves += 19 {
		old, new := gen.RightCombPair(int64(leaves), leaves)
		if !zs.Mirrored(old, new) {
			t.Errorf("right comb of %d nodes runs in left order", old.Len())
		}
		// Mapping's pair order is documented for either side.
		pairs, _, err := zs.Mapping(context.Background(), old, new, zs.UnitCosts())
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, old.PostOrder(), new.PostOrder(), pairs)
	}
	for name, place := range map[string]func(int) string{
		"left comb":    func(int) string { return "left" },
		"zigzag":       func(d int) string { return [2]string{"left", "right"}[d%2] },
		"centre spine": func(int) string { return "centre" },
	} {
		if tr := spineTree(60, place); zs.Mirrored(tr, tr) {
			t.Errorf("%s runs mirrored", name)
		}
	}
	for _, c := range gen.Classes() {
		for seed := int64(1); seed <= 5; seed++ {
			dp := c.Doc
			dp.Seed = seed
			doc := gen.Document(dp)
			pert, err := gen.Perturb(doc, c.Pert(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if zs.Mirrored(doc, pert.New) {
				t.Errorf("%s seed %d runs mirrored", c.Name, seed)
			}
		}
	}
	if zs.Mirrored(nil, tree.New()) {
		t.Error("empty trees report mirrored")
	}
}

// TestMappingHonoursDeadline: a pair that stays in left order and needs
// well over half a second must stop soon after its 50 ms deadline,
// with the context's error wrapped.
func TestMappingHonoursDeadline(t *testing.T) {
	zig := spineTree(120, func(d int) string { return [2]string{"left", "right"}[d%2] })
	if zs.Mirrored(zig, zig) {
		t.Fatal("zigzag runs mirrored; the test needs the slow left order")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := zs.Mapping(ctx, zig, zig, zs.UnitCosts())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("aborted after %v, want soon after the 50ms deadline", elapsed)
	}
}

// Package zs implements the Zhang–Shasha ordered-tree edit distance
// [ZS89], the optimal-but-expensive baseline the paper compares against
// (§2). It supports insert, delete, and relabel (update) operations — the
// [ZS89] operation set, in which deleting an interior node promotes its
// children — and runs in O(n1·n2·min(depth1,leaves1)·min(depth2,leaves2))
// time, O(n1·n2) space: for balanced trees, the O(n² log² n) the paper
// quotes. Each pair runs in the sibling order, left to right or mirrored,
// whose DP is clearly smaller (see layout), so a tree whose long paths
// run down its right side costs no more than its mirror image.
//
// The baseline serves two purposes in the reproduction: the runtime
// scaling comparison of experiment E6 (ours ≈ linear in n for small edit
// distances, ZS quadratic or worse), and the optimal oracle — under unit
// costs the ZS distance is the true minimum number of insert/delete/
// relabel operations, so our conforming scripts can be checked against it
// on move-free workloads (E10, E14), and Mapping backs the "zs" matching
// engine.
package zs

import (
	"context"
	"errors"
	"fmt"

	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Costs prices the three [ZS89] operations. The zero value is not valid;
// use UnitCosts or fill every field.
type Costs struct {
	// Insert returns the cost of inserting node n (from the new tree).
	Insert func(n *tree.Node) float64
	// Delete returns the cost of deleting node n (from the old tree).
	Delete func(n *tree.Node) float64
	// Relabel returns the cost of turning old node a into new node b;
	// it must be 0 when the nodes are identical.
	Relabel func(a, b *tree.Node) float64
}

// UnitCosts is the unit-cost model of [SZ90]: inserts and deletes cost 1,
// relabel costs 0 for identical label+value and 1 otherwise.
func UnitCosts() Costs {
	one := func(*tree.Node) float64 { return 1 }
	return Costs{
		Insert: one,
		Delete: one,
		Relabel: func(a, b *tree.Node) float64 {
			if a.Label() == b.Label() && a.Value() == b.Value() {
				return 0
			}
			return 1
		},
	}
}

// ordered is a tree laid out in Zhang–Shasha form for one sibling
// order: 1-based post-order node array, leftmost-leaf indices, and
// keyroots.
type ordered struct {
	mirrored bool         // children visited right to left
	nodes    []*tree.Node // nodes[i-1] is post-order node i
	leftmost []int        // leftmost[i-1] = l(i)
	keyroots []int        // ascending
	// cells is the sum of the keyroot subtree sizes: this tree's factor
	// of the forward pass's DP area.
	cells int
}

// prepare lays t out in post-order, visiting children left to right or,
// mirrored, right to left. A keyroot is the root or a node with a
// sibling before it in the visiting order — equivalently, the highest
// node for its leftmost leaf — so the one pass finds them all, in
// ascending order.
func prepare(t *tree.Tree, mirrored bool) *ordered {
	o := &ordered{
		mirrored: mirrored,
		nodes:    make([]*tree.Node, 0, t.Len()),
		leftmost: make([]int, 0, t.Len()),
	}
	// visit lays out n's subtree and returns its leftmost leaf.
	var visit func(n *tree.Node, keyroot bool) int
	visit = func(n *tree.Node, keyroot bool) int {
		kids := n.Children()
		l := 0
		for k := range kids {
			c := kids[k]
			if mirrored {
				c = kids[len(kids)-1-k]
			}
			if cl := visit(c, k > 0); k == 0 {
				l = cl
			}
		}
		o.nodes = append(o.nodes, n)
		i := len(o.nodes)
		if l == 0 {
			l = i
		}
		o.leftmost = append(o.leftmost, l)
		if keyroot {
			o.keyroots = append(o.keyroots, i)
			o.cells += i - l + 1
		}
		return l
	}
	visit(t.Root(), true)
	return o
}

// mirrorGain is how many times fewer forward-pass cells the mirrored
// sibling order must need before the DP runs in it. Both orders give
// the same distance, but mirroring can change which of several equally
// optimal mappings backtracking returns: under a strict "<" rule, 157
// of 300 generated document pairs (seeds 1–50 of each battery class)
// would flip, and 34 of those would get a different mapping under
// MatchingCosts. So the side flips only where the gain is unmistakable:
// those document pairs measure at most 1.54× in the mirrored order's
// favour (E14's classes 0.89–1.29×), right-deep combs at least 5× from
// 11 nodes, and a factor of 2 keeps every document on the left.
const mirrorGain = 2

// layout prepares t1 and t2 in the sibling order the DP runs in: the
// mirrored one when its DP area — the product of the two trees' keyroot
// cells — is at most 1/mirrorGain of the left order's. ZS decomposes
// along leftmost paths, so a tree whose long paths run down the right
// (a right-deep comb: Θ(n⁴) cells left, Θ(n²) mirrored) is solved along
// its rightmost ones instead.
func layout(t1, t2 *tree.Tree) (o1, o2 *ordered) {
	o1, o2 = prepare(t1, false), prepare(t2, false)
	m1, m2 := prepare(t1, true), prepare(t2, true)
	// float64: the products overflow int on trees far past any table
	// the DP could allocate, and only their ratio matters.
	if mirrorGain*float64(m1.cells)*float64(m2.cells) <= float64(o1.cells)*float64(o2.cells) {
		return m1, m2
	}
	return o1, o2
}

// Mirrored reports whether Distance and Mapping run the pair in
// mirrored sibling order (false for a nil or empty tree).
func Mirrored(t1, t2 *tree.Tree) bool {
	if checkTrees(t1, t2) != nil {
		return false
	}
	o1, _ := layout(t1, t2)
	return o1.mirrored
}

func checkTrees(t1, t2 *tree.Tree) error {
	if t1 == nil || t2 == nil || t1.Root() == nil || t2.Root() == nil {
		return errors.New("zs: two non-empty trees are required")
	}
	return nil
}

func check(t1, t2 *tree.Tree, c Costs) error {
	if err := checkTrees(t1, t2); err != nil {
		return err
	}
	if c.Insert == nil || c.Delete == nil || c.Relabel == nil {
		return errors.New("zs: all three cost functions are required")
	}
	return nil
}

// solver is one tree pair laid out for the DP, with its costs and its
// tree-distance table.
type solver struct {
	ctx    context.Context // nil: unbounded
	o1, o2 *ordered
	c      Costs
	// td[i][j] is the tree distance between the subtrees rooted at
	// post-order i and j (1-based).
	td [][]float64
}

// newSolver runs the forward pass: the forest DP of every keyroot
// pair, which settles every tree distance. It polls ctx once per
// keyroot of the first tree.
func newSolver(ctx context.Context, o1, o2 *ordered, c Costs) (*solver, error) {
	n1, n2 := len(o1.nodes), len(o2.nodes)
	s := &solver{ctx: ctx, o1: o1, o2: o2, c: c, td: make([][]float64, n1+1)}
	cells := make([]float64, (n1+1)*(n2+1))
	for i := range s.td {
		s.td[i] = cells[i*(n2+1) : (i+1)*(n2+1)]
	}
	for _, i := range o1.keyroots {
		if err := s.poll(); err != nil {
			return nil, err
		}
		for _, j := range o2.keyroots {
			s.forest(i, j)
		}
	}
	return s, nil
}

func (s *solver) poll() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return lderr.Canceled(fmt.Errorf("zs: cancelled: %w", err))
	}
	return nil
}

func (s *solver) distance() float64 {
	return s.td[len(s.o1.nodes)][len(s.o2.nodes)]
}

// Distance computes the Zhang–Shasha edit distance between t1 and t2
// under the given costs.
func Distance(t1, t2 *tree.Tree, c Costs) (float64, error) {
	if err := check(t1, t2, c); err != nil {
		return 0, err
	}
	o1, o2 := layout(t1, t2)
	s, err := newSolver(nil, o1, o2, c)
	if err != nil {
		return 0, err
	}
	return s.distance(), nil
}

// forest fills and returns the forest-distance table of the subtrees
// rooted at post-order i and j — the DP of [ZS89] — recording in td
// the tree distance of every pair (di, dj) with l(di)=l(i), l(dj)=l(j).
// Backtracking refills tables the forward pass already computed; the
// same arithmetic in the same order rewrites td with identical values.
func (s *solver) forest(i, j int) [][]float64 {
	o1, o2, c, td := s.o1, s.o2, s.c, s.td
	li, lj := o1.leftmost[i-1], o2.leftmost[j-1]
	m, n := i-li+2, j-lj+2 // forest DP dimensions, with one slot for ∅
	fd := make([][]float64, m)
	cells := make([]float64, m*n)
	for r := range fd {
		fd[r] = cells[r*n : (r+1)*n]
	}
	// Row r holds the forest l(i)..l(i)+r-1; column s likewise for j.
	for di := li; di <= i; di++ {
		fd[di-li+1][0] = fd[di-li][0] + c.Delete(o1.nodes[di-1])
	}
	for dj := lj; dj <= j; dj++ {
		fd[0][dj-lj+1] = fd[0][dj-lj] + c.Insert(o2.nodes[dj-1])
	}
	for di := li; di <= i; di++ {
		r := di - li + 1
		for dj := lj; dj <= j; dj++ {
			col := dj - lj + 1
			del := fd[r-1][col] + c.Delete(o1.nodes[di-1])
			ins := fd[r][col-1] + c.Insert(o2.nodes[dj-1])
			if o1.leftmost[di-1] == li && o2.leftmost[dj-1] == lj {
				rel := fd[r-1][col-1] + c.Relabel(o1.nodes[di-1], o2.nodes[dj-1])
				fd[r][col] = min3(del, ins, rel)
				td[di][dj] = fd[r][col]
			} else {
				sub := fd[o1.leftmost[di-1]-li][o2.leftmost[dj-1]-lj] + td[di][dj]
				fd[r][col] = min3(del, ins, sub)
			}
		}
	}
	return fd
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// UnitDistance is Distance under UnitCosts: the minimum number of
// insert/delete/relabel operations transforming t1 into t2 in the [ZS89]
// model.
func UnitDistance(t1, t2 *tree.Tree) (float64, error) {
	return Distance(t1, t2, UnitCosts())
}

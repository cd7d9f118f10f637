package tree

import (
	"fmt"

	"ladiff/internal/lderr"
)

// Limits bounds what a parser may build: input bytes, total nodes, and
// tree depth. Zero fields mean unlimited. Parsers enforce MaxBytes on
// the raw input before parsing; MaxNodes and MaxDepth are enforced
// *during* parsing, through the guard installed by Restrict, so a
// pathological input aborts at the limit instead of materializing a
// 200k-node tree first and being measured after.
type Limits struct {
	MaxBytes int
	MaxNodes int
	MaxDepth int
}

// CheckBytes enforces the byte limit on an input of n bytes.
func (l Limits) CheckBytes(n int) error {
	if l.MaxBytes > 0 && n > l.MaxBytes {
		return &LimitError{What: "bytes", N: n, Max: l.MaxBytes}
	}
	return nil
}

// LimitError reports a violated parse limit. It is lderr.ErrLimit-tagged
// (errors.Is(err, lderr.ErrLimit) holds).
type LimitError struct {
	What string // "bytes", "nodes", or "depth"
	N    int    // the offending count
	Max  int    // the configured limit
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("tree: input exceeds %s limit (%d > %d)", e.What, e.N, e.Max)
}

// Unwrap tags the error as lderr.ErrLimit.
func (e *LimitError) Unwrap() error { return lderr.ErrLimit }

// parseGuard enforces node/depth limits as nodes are created. It lives
// only for the duration of one parse; violation panics with a
// *LimitError, which the parser's deferred CatchLimit converts back
// into an error return.
type parseGuard struct {
	lim   Limits
	nodes int
	// depths holds each created node's depth, indexed by its NodeID.
	depths []int32
}

// Restrict installs a parse guard enforcing lim on subsequent node
// creation (SetRoot/AppendChild/InsertChild). Parsers install it on the
// tree under construction and must Unrestrict before returning the tree,
// so later pipeline mutations (edit-script application) are unguarded.
func (t *Tree) Restrict(lim Limits) {
	if lim.MaxNodes <= 0 && lim.MaxDepth <= 0 {
		t.guard = nil
		return
	}
	t.guard = &parseGuard{lim: lim}
}

// Unrestrict removes the parse guard.
func (t *Tree) Unrestrict() { t.guard = nil }

// admit checks that one more node may be created under parent,
// returning the new node's depth. It panics with *LimitError on
// violation; the enclosing parser recovers it via CatchLimit.
func (g *parseGuard) admit(parent *Node) int {
	g.nodes++
	if g.lim.MaxNodes > 0 && g.nodes > g.lim.MaxNodes {
		panic(&LimitError{What: "nodes", N: g.nodes, Max: g.lim.MaxNodes})
	}
	depth := 1
	if parent != nil && int(parent.id) < len(g.depths) {
		depth = int(g.depths[parent.id]) + 1
	}
	if g.lim.MaxDepth > 0 && depth > g.lim.MaxDepth {
		panic(&LimitError{What: "depth", N: depth, Max: g.lim.MaxDepth})
	}
	return depth
}

// note records a created node's depth for its future children. Parsers
// create nodes in ID order, so the table grows by one slot per node.
func (g *parseGuard) note(n *Node, depth int) {
	for int(n.id) >= len(g.depths) {
		g.depths = append(g.depths, 0)
	}
	g.depths[n.id] = int32(depth)
}

// CatchLimit is the deferred recovery half of the parse guard: it
// converts a *LimitError panic into an error return and re-raises
// anything else. Use as:
//
//	func ParseLimited(src string, lim tree.Limits) (t *tree.Tree, err error) {
//		defer tree.CatchLimit(&err)
//		...
//	}
//
// The partially built tree is meaningless after a limit abort; callers
// must check err before touching the tree result.
func CatchLimit(err *error) {
	if v := recover(); v != nil {
		if le, ok := v.(*LimitError); ok {
			*err = le
			return
		}
		panic(v)
	}
}

// Package delta implements the delta-tree representation of Chawathe et
// al. (SIGMOD 1996, §6): the edit script "overlaid" onto the data as node
// annotations, the form LaDiff renders for users (Figure 12, Appendix A).
//
// Each delta node carries exactly one annotation. Identity (the paper's
// IDN), Updated (UPD), Inserted (INS) and Deleted (DEL) are direct. Moves
// are represented by a pair of nodes sharing a MoveRef: a MoveSource
// tombstone at the node's old position (the paper's MOV(x), which points
// at its destination marker) and a MoveDest node carrying the subtree's
// content at the new position (the paper's MRK). This mirrors LaDiff's
// output, where a moved sentence appears at its old position as a small-
// font labelled tombstone and at its new position with a footnote
// reference (Figure 16).
//
// A delta tree is correct (§6) when some ordering of its annotations
// yields an edit script transforming the old tree into the new one. We
// verify a stronger, constructive property: ExtractNew recovers a tree
// isomorphic to the new version and ExtractOld one isomorphic to the old
// version, so the overlay loses nothing in either direction.
package delta

import (
	"errors"
	"fmt"
	"strings"

	"ladiff/internal/core"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// Kind is a delta-tree annotation.
type Kind int

const (
	// Identity marks a node present, unchanged, in both versions (IDN).
	Identity Kind = iota
	// Updated marks a node whose value changed (UPD): Value holds the
	// new value and OldValue the old one.
	Updated
	// Inserted marks a node that exists only in the new version (INS).
	Inserted
	// Deleted marks the root of a subtree that exists only in the old
	// version (DEL); the tombstone subtree preserves the deleted content.
	Deleted
	// MoveSource is the tombstone at a moved node's old position; it
	// references its MoveDest through MoveRef (the paper's MOV(x)).
	MoveSource
	// MoveDest carries a moved subtree's content at its new position
	// (the paper's MRK). If the move also updated the value, OldValue is
	// set.
	MoveDest
)

// String returns a short mnemonic for the annotation.
func (k Kind) String() string {
	switch k {
	case Identity:
		return "IDN"
	case Updated:
		return "UPD"
	case Inserted:
		return "INS"
	case Deleted:
		return "DEL"
	case MoveSource:
		return "MOV"
	case MoveDest:
		return "MRK"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one node of a delta tree.
type Node struct {
	Kind     Kind
	Label    tree.Label
	Value    string // current content (old content for tombstones)
	OldValue string // pre-update value, set for Updated and updated MoveDest
	// MoveRef pairs a MoveSource with its MoveDest; refs are 1-based and
	// unique per delta tree. Zero for non-move nodes.
	MoveRef  int
	Children []*Node
	// dest links a MoveSource to its MoveDest node for extraction.
	dest *Node
}

// Dest returns the destination node of a MoveSource, or nil.
func (n *Node) Dest() *Node { return n.dest }

// Tree is a delta tree: the new version of the data annotated with the
// changes that produced it, plus tombstones for what the old version
// lost.
type Tree struct {
	Root *Node
	// Moves is the number of MoveSource/MoveDest pairs.
	Moves int
}

// Stats counts the annotations in the delta tree.
type Stats struct {
	Identity, Updated, Inserted, Deleted, MovePairs int
}

// Stats walks the delta tree and tallies annotations. Deleted counts
// every node inside deleted subtrees.
func (t *Tree) Stats() Stats {
	var s Stats
	var rec func(n *Node)
	rec = func(n *Node) {
		switch n.Kind {
		case Identity:
			s.Identity++
		case Updated:
			s.Updated++
		case Inserted:
			s.Inserted++
		case Deleted:
			s.Deleted++
		case MoveSource:
			s.MovePairs++
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
	return s
}

// Build constructs the delta tree for a Diff/EditScript result. The tree
// is anchored on the new version's shape; deleted subtrees and move
// sources appear as tombstones positioned relative to their surviving old
// siblings.
func Build(res *core.Result) (*Tree, error) {
	if res == nil || res.Old == nil || res.New == nil {
		return nil, errors.New("delta: nil result")
	}
	oldT, newT := res.Old, res.New
	m := res.Matching
	b := &builder{res: res, m: m, oldT: oldT, newT: newT,
		newIndex: make([]int, newT.IDBound())}

	var root *Node
	if m.Has(oldT.Root().ID(), newT.Root().ID()) {
		root = b.buildPair(oldT.Root(), newT.Root())
	} else {
		// Unmatched roots: a synthetic container holds the old root's
		// tombstone alongside the new root's content, mirroring the
		// dummy-root wrapping of the insert phase (§4.1).
		root = &Node{Kind: Identity, Label: "delta-root"}
		root.Children = append(root.Children, b.tombstonesFor(oldT.Root())...)
		root.Children = append(root.Children, b.buildNew(newT.Root()))
	}
	return &Tree{Root: root, Moves: b.moveRefs}, nil
}

type builder struct {
	res      *core.Result
	m        *match.Matching
	oldT     *tree.Tree
	newT     *tree.Tree
	moveRefs int
	// sources holds each moved old node's MoveSource tombstone, indexed
	// by old node ID, so the MoveDest (built from the new side) can link
	// up regardless of which side is visited first. Allocated on the
	// first move.
	sources []*Node
	// newIndex holds each new node's 0-based index among its parent's
	// children, indexed by new node ID; mergeChildren fills it for the
	// children of the parent it merges.
	newIndex []int
}

func (b *builder) ref(oldID tree.NodeID) (src, dst *Node) {
	if b.sources == nil {
		b.sources = make([]*Node, b.oldT.IDBound())
	}
	if b.sources[oldID] == nil {
		b.moveRefs++
		b.sources[oldID] = &Node{Kind: MoveSource, MoveRef: b.moveRefs,
			dest: &Node{Kind: MoveDest, MoveRef: b.moveRefs}}
	}
	src = b.sources[oldID]
	return src, src.dest
}

// buildNew builds the delta node for new node y (and its subtree).
func (b *builder) buildNew(y *tree.Node) *Node {
	oldID, matched := b.m.ToOld(y.ID())
	if !matched {
		n := &Node{Kind: Inserted, Label: y.Label(), Value: y.Value()}
		for _, c := range y.Children() {
			n.Children = append(n.Children, b.buildNew(c))
		}
		return n
	}
	x := b.oldT.Node(oldID)
	return b.buildPair(x, y)
}

// buildPair builds the delta node for the matched pair (x, y), including
// interleaved tombstones for x's vanished children.
func (b *builder) buildPair(x, y *tree.Node) *Node {
	var n *Node
	moved := b.res.MovedOld[x.ID()]
	updated := x.Value() != y.Value()
	switch {
	case moved:
		_, n = b.ref(x.ID())
		n.Label, n.Value = y.Label(), y.Value()
		if updated {
			n.OldValue = x.Value()
		}
	case updated:
		n = &Node{Kind: Updated, Label: y.Label(), Value: y.Value(), OldValue: x.Value()}
	default:
		n = &Node{Kind: Identity, Label: y.Label(), Value: y.Value()}
	}
	n.Children = b.mergeChildren(x, y)
	return n
}

// mergeChildren produces y's delta children interleaved with tombstones
// for children of x that were deleted or moved away, positioned after
// their nearest stable left sibling. When x leaves no tombstone, the
// delta children are y's, as they are.
func (b *builder) mergeChildren(x, y *tree.Node) []*Node {
	newKids := make([]*Node, len(y.Children()))
	for i, c := range y.Children() {
		newKids[i] = b.buildNew(c)
		b.newIndex[c.ID()] = i
	}
	// after[i] collects tombstones to place after newKids[i], allocated
	// at the first tombstone with a stable left anchor; prefix collects
	// those with none.
	var after [][]*Node
	var prefix []*Node
	tombs := 0
	anchor := -1
	for _, c := range x.Children() {
		var tomb *Node
		if partnerID, matched := b.m.ToNew(c.ID()); !matched {
			// Unmatched: deleted subtree tombstone.
			tomb = b.deletedTombstone(c)
		} else if b.newT.Node(partnerID).Parent() == y && !b.res.MovedOld[c.ID()] {
			// Stable: its content node is newKids[idx]; advance anchor.
			anchor = b.newIndex[partnerID]
			continue
		} else {
			// Moved away (inter-parent) or reordered (intra-parent):
			// leave a MoveSource tombstone at the old position.
			tomb, _ = b.ref(c.ID())
			tomb.Label, tomb.Value = c.Label(), c.Value()
		}
		tombs++
		if anchor < 0 {
			prefix = append(prefix, tomb)
			continue
		}
		if after == nil {
			after = make([][]*Node, len(newKids))
		}
		after[anchor] = append(after[anchor], tomb)
	}
	if tombs == 0 {
		return newKids
	}
	out := make([]*Node, 0, len(newKids)+tombs)
	out = append(out, prefix...)
	for i, k := range newKids {
		out = append(out, k)
		if after != nil {
			out = append(out, after[i]...)
		}
	}
	return out
}

// deletedTombstone builds the tombstone subtree for an unmatched old
// node: deleted descendants recurse, matched descendants (which moved
// away) become MoveSource tombstones.
func (b *builder) deletedTombstone(c *tree.Node) *Node {
	n := &Node{Kind: Deleted, Label: c.Label(), Value: c.Value()}
	for _, cc := range c.Children() {
		if _, matched := b.m.ToNew(cc.ID()); matched {
			src, _ := b.ref(cc.ID())
			src.Label, src.Value = cc.Label(), cc.Value()
			n.Children = append(n.Children, src)
			continue
		}
		n.Children = append(n.Children, b.deletedTombstone(cc))
	}
	return n
}

// tombstonesFor renders an entire old subtree as tombstones (used for an
// unmatched old root).
func (b *builder) tombstonesFor(x *tree.Node) []*Node {
	if _, matched := b.m.ToNew(x.ID()); matched {
		src, _ := b.ref(x.ID())
		src.Label, src.Value = x.Label(), x.Value()
		return []*Node{src}
	}
	return []*Node{b.deletedTombstone(x)}
}

// ExtractNew rebuilds the new version from the delta tree: tombstones are
// dropped, everything else contributes its (new) value.
func (t *Tree) ExtractNew() *tree.Tree {
	out := tree.New()
	var rec func(n *Node, parent *tree.Node)
	rec = func(n *Node, parent *tree.Node) {
		switch n.Kind {
		case Deleted, MoveSource:
			return
		}
		var self *tree.Node
		if parent == nil {
			self = out.SetRoot(n.Label, n.Value)
		} else {
			self = out.AppendChild(parent, n.Label, n.Value)
		}
		for _, c := range n.Children {
			rec(c, self)
		}
	}
	if t.Root != nil {
		rec(t.Root, nil)
	}
	return out
}

// ExtractOld rebuilds the old version from the delta tree: inserted nodes
// and move destinations are dropped, updated nodes contribute their old
// value, deleted tombstones their preserved content, and move sources
// recurse into their destination's subtree (in old mode) to recover the
// moved content at its old position.
func (t *Tree) ExtractOld() *tree.Tree {
	out := tree.New()
	var rec func(n *Node, parent *tree.Node)
	rec = func(n *Node, parent *tree.Node) {
		switch n.Kind {
		case Inserted, MoveDest:
			return
		}
		if n.Kind == MoveSource && n.dest == nil {
			return
		}
		// A tombstone's own label/value are already the old ones; an
		// updated node contributes its pre-update value.
		value := n.Value
		if n.Kind == Updated {
			value = n.OldValue
		}
		var self *tree.Node
		if parent == nil {
			self = out.SetRoot(n.Label, value)
		} else {
			self = out.AppendChild(parent, n.Label, value)
		}
		kids := n.Children
		if n.Kind == MoveSource {
			kids = n.dest.Children
		}
		for _, c := range kids {
			rec(c, self)
		}
	}
	if t.Root != nil {
		rec(t.Root, nil)
	}
	return out
}

// Validate checks the §6 correctness property constructively: the delta
// tree must reproduce both versions. It compares ExtractNew against the
// result's new tree and ExtractOld against the old tree, up to
// isomorphism.
func (t *Tree) Validate(res *core.Result) error {
	if !tree.Isomorphic(t.ExtractNew(), expectedNew(res)) {
		return errors.New("delta: ExtractNew does not reproduce the new tree")
	}
	if !tree.Isomorphic(t.ExtractOld(), expectedOld(res)) {
		return errors.New("delta: ExtractOld does not reproduce the old tree")
	}
	return nil
}

func expectedNew(res *core.Result) *tree.Tree {
	if res.Matching.Has(res.Old.Root().ID(), res.New.Root().ID()) {
		return res.New
	}
	w := res.New.Clone()
	w.WrapRoot("delta-root", "")
	return w
}

func expectedOld(res *core.Result) *tree.Tree {
	if res.Matching.Has(res.Old.Root().ID(), res.New.Root().ID()) {
		return res.Old
	}
	w := res.Old.Clone()
	w.WrapRoot("delta-root", "")
	return w
}

// String renders the delta tree in an indented diagnostic format, one
// node per line: annotation, label, value, and move reference.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Kind.String())
		if n.MoveRef > 0 {
			fmt.Fprintf(&b, "#%d", n.MoveRef)
		}
		b.WriteByte(' ')
		b.WriteString(string(n.Label))
		if n.Value != "" {
			fmt.Fprintf(&b, " %q", n.Value)
		}
		if n.OldValue != "" {
			fmt.Fprintf(&b, " (was %q)", n.OldValue)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if t.Root != nil {
		rec(t.Root, 0)
	}
	return b.String()
}

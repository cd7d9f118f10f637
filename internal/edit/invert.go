package edit

import (
	"fmt"

	"ladiff/internal/tree"
)

// Invert computes the inverse of a script with respect to the tree it
// applies to: applying s to a clone of base and then applying the
// returned script transforms the result back into a tree isomorphic to
// base (with the original node identifiers for all surviving nodes).
//
// Inverses are computed positionally while replaying s, because several
// operations do not carry enough context on their own: DEL(x) inverts to
// an insert that needs x's label, value, parent and position at deletion
// time; MOV needs the source parent and position; UPD needs the old
// value. The returned script therefore pairs with exactly this base tree
// — inverting a script against a different tree is an error the replay
// detects.
//
// Inverse scripts make deltas bidirectional: store one version plus a
// script and reconstruct the other on demand, in either direction — the
// versioning use the paper's introduction motivates.
func Invert(s Script, base *tree.Tree) (Script, error) {
	work := base.Clone()
	limit := s.idLimit(base)
	inverses := make(Script, 0, len(s))
	for i, op := range s {
		var inv Op
		switch op.Kind {
		case Insert:
			inv = Del(op.Node)
		case Delete:
			n := work.Node(op.Node)
			if n == nil {
				return nil, fmt.Errorf("edit: invert: op %d deletes unknown node %d", i+1, op.Node)
			}
			if n.Parent() == nil {
				return nil, fmt.Errorf("edit: invert: op %d deletes the root", i+1)
			}
			inv = Ins(n.ID(), n.Label(), n.Value(), n.Parent().ID(), n.ChildIndex())
		case Update:
			n := work.Node(op.Node)
			if n == nil {
				return nil, fmt.Errorf("edit: invert: op %d updates unknown node %d", i+1, op.Node)
			}
			inv = Upd(n.ID(), op.Value, n.Value())
		case Move:
			n := work.Node(op.Node)
			if n == nil {
				return nil, fmt.Errorf("edit: invert: op %d moves unknown node %d", i+1, op.Node)
			}
			if n.Parent() == nil {
				return nil, fmt.Errorf("edit: invert: op %d moves the root", i+1)
			}
			// The position to restore is n's index with n removed from
			// its current siblings — tree.Move's detach-first semantics.
			inv = Mov(n.ID(), n.Parent().ID(), n.ChildIndex())
		default:
			return nil, fmt.Errorf("edit: invert: op %d has invalid kind %v", i+1, op.Kind)
		}
		if err := op.apply(work, limit); err != nil {
			return nil, fmt.Errorf("edit: invert: replaying op %d: %w", i+1, err)
		}
		inverses = append(inverses, inv)
	}
	// Reverse: the last operation is undone first.
	out := make(Script, len(inverses))
	for i := range inverses {
		out[i] = inverses[len(inverses)-1-i]
	}
	return out, nil
}

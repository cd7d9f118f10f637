// Package edit defines the four tree edit operations of Chawathe et al.
// (SIGMOD 1996, §3.2) — insert, delete, update, move — together with edit
// scripts, the cost model, and machinery to apply and validate scripts
// against trees.
//
// Operation positions are 1-based child indices valid at application time:
// Algorithm EditScript applies each operation to the working tree as it is
// appended (§4), so a script replayed in order on a fresh copy of the old
// tree deterministically reproduces the transformation.
package edit

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ladiff/internal/compare"
	"ladiff/internal/tree"
)

// Kind identifies one of the four edit operations.
type Kind int

const (
	// Insert is INS((x,l,v), y, k): insert a new leaf x with label l and
	// value v as the k-th child of y.
	Insert Kind = iota + 1
	// Delete is DEL(x): delete the leaf node x.
	Delete
	// Update is UPD(x, v): set the value of x to v.
	Update
	// Move is MOV(x, y, k): make the subtree rooted at x the k-th child
	// of y.
	Move
)

// String returns the paper's mnemonic for the operation kind.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "INS"
	case Delete:
		return "DEL"
	case Update:
		return "UPD"
	case Move:
		return "MOV"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is a single edit operation. Which fields are meaningful depends on
// Kind:
//
//	Insert: Node (new ID), Label, Value, Parent, Pos
//	Delete: Node
//	Update: Node, Value (new), OldValue (for costing)
//	Move:   Node, Parent, Pos
type Op struct {
	Kind     Kind
	Node     tree.NodeID
	Label    tree.Label
	Value    string
	OldValue string
	Parent   tree.NodeID
	Pos      int
}

// Ins constructs an insert operation.
func Ins(id tree.NodeID, label tree.Label, value string, parent tree.NodeID, pos int) Op {
	return Op{Kind: Insert, Node: id, Label: label, Value: value, Parent: parent, Pos: pos}
}

// Del constructs a delete operation.
func Del(id tree.NodeID) Op { return Op{Kind: Delete, Node: id} }

// Upd constructs an update operation. oldValue is recorded for the cost
// model, which prices updates by compare(old, new) (§3.2).
func Upd(id tree.NodeID, oldValue, newValue string) Op {
	return Op{Kind: Update, Node: id, Value: newValue, OldValue: oldValue}
}

// Mov constructs a move operation.
func Mov(id, parent tree.NodeID, pos int) Op {
	return Op{Kind: Move, Node: id, Parent: parent, Pos: pos}
}

// String renders the operation in the paper's notation, e.g.
// INS((11,Sec,"foo"),1,4) or MOV(5,11,1).
func (o Op) String() string {
	switch o.Kind {
	case Insert:
		if o.Value == "" {
			return fmt.Sprintf("INS((%d,%s),%d,%d)", o.Node, o.Label, o.Parent, o.Pos)
		}
		return fmt.Sprintf("INS((%d,%s,%q),%d,%d)", o.Node, o.Label, o.Value, o.Parent, o.Pos)
	case Delete:
		return fmt.Sprintf("DEL(%d)", o.Node)
	case Update:
		return fmt.Sprintf("UPD(%d,%q)", o.Node, o.Value)
	case Move:
		return fmt.Sprintf("MOV(%d,%d,%d)", o.Node, o.Parent, o.Pos)
	default:
		return fmt.Sprintf("Op{%v}", o.Kind)
	}
}

// errIDBound marks an insert rejected because its ID lies past the bound
// Apply and Script.Apply allow. Every node table is sized by the tree's
// IDBound, and scripts may arrive from outside the program, so an
// unbounded ID would make the tree allocate without limit.
var errIDBound = errors.New("insert ID past the tree's bound")

// Apply performs the operation on t, mutating it. It returns an error if
// the operation is invalid against t's current state (unknown node,
// position out of range, delete of a non-leaf, move under own subtree,
// an insert ID above t.IDBound()). On error t is unchanged.
func (o Op) Apply(t *tree.Tree) error { return o.apply(t, t.IDBound()+1) }

// apply is Apply with an exclusive upper bound on the ID an insert may
// carry.
func (o Op) apply(t *tree.Tree, idLimit tree.NodeID) error {
	switch o.Kind {
	case Insert:
		if o.Node >= idLimit {
			return fmt.Errorf("edit: %v: %w (%d)", o, errIDBound, idLimit)
		}
		parent := t.Node(o.Parent)
		if parent == nil {
			return fmt.Errorf("edit: %v: parent not in tree", o)
		}
		if _, err := t.InsertChildID(parent, o.Pos, o.Node, o.Label, o.Value); err != nil {
			return fmt.Errorf("edit: %v: %w", o, err)
		}
		return nil
	case Delete:
		n := t.Node(o.Node)
		if n == nil {
			return fmt.Errorf("edit: %v: node not in tree", o)
		}
		if err := t.Delete(n); err != nil {
			return fmt.Errorf("edit: %v: %w", o, err)
		}
		return nil
	case Update:
		n := t.Node(o.Node)
		if n == nil {
			return fmt.Errorf("edit: %v: node not in tree", o)
		}
		t.SetValue(n, o.Value)
		return nil
	case Move:
		n := t.Node(o.Node)
		if n == nil {
			return fmt.Errorf("edit: %v: node not in tree", o)
		}
		parent := t.Node(o.Parent)
		if parent == nil {
			return fmt.Errorf("edit: %v: new parent not in tree", o)
		}
		if err := t.Move(n, parent, o.Pos); err != nil {
			return fmt.Errorf("edit: %v: %w", o, err)
		}
		return nil
	default:
		return fmt.Errorf("edit: apply of invalid op kind %v", o.Kind)
	}
}

// Script is a sequence of edit operations, applied left to right.
type Script []Op

// idLimit is the exclusive bound on the IDs the script's inserts may
// carry when it runs against t (see Apply).
func (s Script) idLimit(t *tree.Tree) tree.NodeID { return t.IDBound() + tree.NodeID(len(s)) }

// Apply performs every operation of the script on t in order, mutating t.
// It stops at the first failing operation; t is then left in the state
// reached so far (callers that need atomicity should Apply to a Clone).
//
// Every insert's ID must lie below t.IDBound() at the start plus len(s).
// Generated scripts number their inserts upward from the old tree's
// bound, and inverses re-insert IDs the tree has held, so both fit.
func (s Script) Apply(t *tree.Tree) error {
	limit := s.idLimit(t)
	for i, op := range s {
		if err := op.apply(t, limit); err != nil {
			return fmt.Errorf("edit: op %d of %d: %w", i+1, len(s), err)
		}
	}
	return nil
}

// ApplyTo clones t, applies the script to the clone, and returns it.
func (s Script) ApplyTo(t *tree.Tree) (*tree.Tree, error) {
	out := t.Clone()
	if err := s.Apply(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Counts reports how many operations of each kind the script contains.
func (s Script) Counts() (inserts, deletes, updates, moves int) {
	for _, op := range s {
		switch op.Kind {
		case Insert:
			inserts++
		case Delete:
			deletes++
		case Update:
			updates++
		case Move:
			moves++
		}
	}
	return
}

// String renders the script as comma-separated operations in the paper's
// notation.
func (s Script) String() string {
	parts := make([]string, len(s))
	for i, op := range s {
		parts[i] = op.String()
	}
	return strings.Join(parts, ", ")
}

// CostModel prices edit operations following §3.2: inserting, deleting and
// moving are flat-cost (1 in the paper's simple model) and updating a node
// costs Compare(old value, new value) ∈ [0,2].
type CostModel struct {
	InsertCost float64
	DeleteCost float64
	MoveCost   float64
	Compare    compare.Func
}

// UnitCosts is the paper's simple cost model: c_D = c_I = c_M = 1 and
// update priced by the word-LCS comparer.
func UnitCosts() CostModel {
	return CostModel{InsertCost: 1, DeleteCost: 1, MoveCost: 1, Compare: compare.WordLCS}
}

// Cost returns the cost of the script under the model: the sum of its
// operations' costs. Updates require OldValue to have been recorded.
func (m CostModel) Cost(s Script) float64 {
	cmp := m.Compare
	if cmp == nil {
		cmp = compare.WordLCS
	}
	total := 0.0
	for _, op := range s {
		switch op.Kind {
		case Insert:
			total += m.InsertCost
		case Delete:
			total += m.DeleteCost
		case Move:
			total += m.MoveCost
		case Update:
			total += cmp(op.OldValue, op.Value)
		}
	}
	return total
}

// Distances applies the script to a clone of t1 and returns the paper's
// two distance measures (§5.3 and §8):
//
//   - d, the unweighted edit distance: the number of operations;
//   - e, the weighted edit distance: 1 per insert or delete, |x| (leaves
//     under the moved node, at move time) per move, 0 per update.
//
// The returned tree is the transformed clone, so callers can both measure
// and verify with one application.
func (s Script) Distances(t1 *tree.Tree) (d int, e int, result *tree.Tree, err error) {
	work := t1.Clone()
	limit := s.idLimit(t1)
	for i, op := range s {
		if op.Kind == Move {
			if n := work.Node(op.Node); n != nil {
				e += tree.NumLeaves(n)
			}
		}
		if op.Kind == Insert || op.Kind == Delete {
			e++
		}
		if applyErr := op.apply(work, limit); applyErr != nil {
			return 0, 0, nil, fmt.Errorf("edit: op %d of %d: %w", i+1, len(s), applyErr)
		}
	}
	return len(s), e, work, nil
}

// jsonOp is the wire form of Op for the CLI tools.
type jsonOp struct {
	Op       string `json:"op"`
	Node     int64  `json:"node"`
	Label    string `json:"label,omitempty"`
	Value    string `json:"value,omitempty"`
	OldValue string `json:"oldValue,omitempty"`
	Parent   int64  `json:"parent,omitempty"`
	Pos      int    `json:"pos,omitempty"`
}

// MarshalJSON encodes the operation with a lowercase "op" discriminator.
func (o Op) MarshalJSON() ([]byte, error) {
	var name string
	switch o.Kind {
	case Insert:
		name = "insert"
	case Delete:
		name = "delete"
	case Update:
		name = "update"
	case Move:
		name = "move"
	default:
		return nil, fmt.Errorf("edit: marshal of invalid op kind %v", o.Kind)
	}
	return json.Marshal(jsonOp{
		Op: name, Node: int64(o.Node), Label: string(o.Label),
		Value: o.Value, OldValue: o.OldValue, Parent: int64(o.Parent), Pos: o.Pos,
	})
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (o *Op) UnmarshalJSON(data []byte) error {
	var jo jsonOp
	if err := json.Unmarshal(data, &jo); err != nil {
		return err
	}
	var kind Kind
	switch jo.Op {
	case "insert":
		kind = Insert
	case "delete":
		kind = Delete
	case "update":
		kind = Update
	case "move":
		kind = Move
	default:
		return fmt.Errorf("edit: unknown op %q", jo.Op)
	}
	*o = Op{
		Kind: kind, Node: tree.NodeID(jo.Node), Label: tree.Label(jo.Label),
		Value: jo.Value, OldValue: jo.OldValue, Parent: tree.NodeID(jo.Parent), Pos: jo.Pos,
	}
	return nil
}

package edit

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ladiff/internal/tree"
)

func sample() *tree.Tree {
	return tree.MustParse(`doc
  para
    s "alpha"
    s "beta"
  para
    s "gamma"`)
}

func TestOpStringNotation(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Ins(11, "Sec", "foo", 1, 4), `INS((11,Sec,"foo"),1,4)`},
		{Ins(11, "Sec", "", 1, 4), `INS((11,Sec),1,4)`},
		{Del(2), "DEL(2)"},
		{Upd(9, "bar", "baz"), `UPD(9,"baz")`},
		{Mov(5, 11, 1), "MOV(5,11,1)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestApplyInsert(t *testing.T) {
	tr := sample()
	op := Ins(7, "s", "delta", 2, 2) // node 2 is the first para
	if err := op.Apply(tr); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	para := tr.Node(2)
	if para.NumChildren() != 3 || para.Child(2).Value() != "delta" {
		t.Fatalf("insert landed wrong: %v", para.Children())
	}
	if tr.Node(7) == nil {
		t.Fatal("inserted node not indexed under requested ID")
	}
}

func TestApplyErrors(t *testing.T) {
	tr := sample()
	bad := []Op{
		Ins(7, "s", "v", 999, 1),  // unknown parent
		Ins(7, "s", "v", 2, 9),    // position out of range
		Ins(1, "s", "v", 2, 1),    // duplicate ID
		Del(999),                  // unknown node
		Del(2),                    // non-leaf
		Upd(999, "", "x"),         // unknown node
		Mov(999, 1, 1),            // unknown node
		Mov(2, 999, 1),            // unknown parent
		Mov(1, 2, 1),              // move root
		Mov(2, 3, 1),              // move under own subtree
		{Kind: Kind(99), Node: 1}, // invalid kind
	}
	for _, op := range bad {
		if err := op.Apply(tr); err == nil {
			t.Errorf("expected error for %v", op)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree corrupted by failed ops: %v", err)
	}
}

// TestInsertIDBound pins the cap on caller-chosen insert IDs: a lone op
// may use IDs up to the tree's IDBound, a script IDs below the bound at
// its start plus its length, and an ID past the cap is rejected with
// the tree untouched.
func TestInsertIDBound(t *testing.T) {
	base := sample() // IDBound 7
	cases := []struct {
		name string
		s    Script
		ok   bool
	}{
		{"op at limit", Script{Ins(7, "s", "v", 2, 1)}, true},
		{"op past limit", Script{Ins(8, "s", "v", 2, 1)}, false},
		{"script at limit", Script{Ins(8, "s", "v", 2, 1), Upd(3, "alpha", "x")}, true},
		{"script past limit", Script{Ins(9, "s", "v", 2, 1), Upd(3, "alpha", "x")}, false},
		{"huge ID", Script{Ins(1<<40, "s", "v", 2, 1)}, false},
	}
	for _, c := range cases {
		work := base.Clone()
		var err error
		if len(c.s) == 1 {
			err = c.s[0].Apply(work)
		} else {
			err = c.s.Apply(work)
		}
		if c.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if !c.ok {
			if !errors.Is(err, errIDBound) {
				t.Errorf("%s: err = %v, want errIDBound", c.name, err)
			}
			if work.String() != base.String() || work.IDBound() != base.IDBound() {
				t.Errorf("%s: rejected insert changed the tree", c.name)
			}
		}
	}
}

func TestScriptApplyAndCounts(t *testing.T) {
	tr := sample()
	s := Script{
		Upd(3, "alpha", "ALPHA"),
		Ins(7, "s", "delta", 5, 2),
		Mov(4, 5, 1),
		Del(3),
	}
	ins, del, upd, mov := s.Counts()
	if ins != 1 || del != 1 || upd != 1 || mov != 1 {
		t.Fatalf("Counts = %d,%d,%d,%d", ins, del, upd, mov)
	}
	out, err := s.ApplyTo(tr)
	if err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	// Original untouched.
	if tr.Node(3) == nil || tr.Node(3).Value() != "alpha" {
		t.Fatal("ApplyTo mutated the input tree")
	}
	if out.Node(3) != nil {
		t.Fatal("deleted node survives in output")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestScriptStopsAtFirstError(t *testing.T) {
	tr := sample()
	s := Script{Upd(3, "alpha", "x"), Del(999), Upd(6, "gamma", "never")}
	err := s.Apply(tr)
	if err == nil || !strings.Contains(err.Error(), "op 2 of 3") {
		t.Fatalf("error = %v, want op-2 failure", err)
	}
	if tr.Node(6).Value() != "gamma" {
		t.Fatal("script continued past the failing op")
	}
}

func TestCostModel(t *testing.T) {
	model := UnitCosts()
	s := Script{
		Ins(100, "s", "v", 2, 1),
		Del(3),
		Mov(4, 5, 1),
		Upd(6, "a b c d", "a b c x"), // WordLCS distance 0.5
	}
	if got := model.Cost(s); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("Cost = %v, want 3.5", got)
	}
	// Nil comparer in a custom model falls back to WordLCS.
	custom := CostModel{InsertCost: 2, DeleteCost: 3, MoveCost: 5}
	if got := custom.Cost(s); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("custom Cost = %v, want 10.5", got)
	}
}

func TestDistances(t *testing.T) {
	tr := sample()
	s := Script{
		Upd(3, "alpha", "x"),   // weight 0
		Ins(7, "s", "v", 5, 1), // weight 1
		Mov(2, 5, 1),           // para with 2 leaves: weight 2
		Del(6),                 // weight 1
	}
	d, e, result, err := s.Distances(tr)
	if err != nil {
		t.Fatalf("Distances: %v", err)
	}
	if d != 4 {
		t.Fatalf("d = %d, want 4", d)
	}
	if e != 4 { // 0 + 1 + 2 + 1
		t.Fatalf("e = %d, want 4", e)
	}
	if err := result.Validate(); err != nil {
		t.Fatalf("result invalid: %v", err)
	}
	if tr.Node(6) == nil {
		t.Fatal("Distances mutated the input tree")
	}
}

func TestMoveWeightCountsLeavesAtMoveTime(t *testing.T) {
	tr := sample()
	// Insert a sentence into para 2 (ID 5... wait: doc=1, para=2, s=3,
	// s=4, para=5, s=6), then move para 5: weight must include the new
	// leaf.
	s := Script{
		Ins(7, "s", "v", 5, 1),
		Mov(5, 2, 1),
	}
	_, e, _, err := s.Distances(tr)
	if err != nil {
		t.Fatalf("Distances: %v", err)
	}
	if e != 3 { // insert 1 + move of subtree with 2 leaves
		t.Fatalf("e = %d, want 3", e)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Script{
		Ins(11, "Sec", "foo", 1, 4),
		Del(2),
		Upd(9, "bar", "baz"),
		Mov(5, 11, 1),
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Script
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back) != len(s) {
		t.Fatalf("length changed: %d vs %d", len(back), len(s))
	}
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("op %d changed: %v vs %v", i, back[i], s[i])
		}
	}
}

func TestJSONUnknownOp(t *testing.T) {
	var op Op
	if err := json.Unmarshal([]byte(`{"op":"explode"}`), &op); err == nil {
		t.Fatal("expected error for unknown op")
	}
	if _, err := json.Marshal(Op{Kind: Kind(42)}); err == nil {
		t.Fatal("expected error marshalling invalid kind")
	}
}

func TestKindString(t *testing.T) {
	if Insert.String() != "INS" || Delete.String() != "DEL" ||
		Update.String() != "UPD" || Move.String() != "MOV" {
		t.Fatal("Kind.String mnemonics wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include the number")
	}
}

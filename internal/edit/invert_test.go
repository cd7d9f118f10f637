package edit

import (
	"testing"

	"ladiff/internal/tree"
)

func TestInvertSimpleOps(t *testing.T) {
	base := sample() // doc(1) / para(2)[s(3) s(4)] para(5)[s(6)]
	s := Script{
		Upd(3, "alpha", "ALPHA"),
		Ins(7, "s", "delta", 5, 2),
		Mov(4, 5, 1),
		Del(6),
	}
	inv, _, err := Invert(s, base)
	if err != nil {
		t.Fatalf("Invert: %v", err)
	}
	if len(inv) != len(s) {
		t.Fatalf("inverse length %d, want %d", len(inv), len(s))
	}
	// Forward then backward restores the original.
	work := base.Clone()
	if err := s.Apply(work); err != nil {
		t.Fatal(err)
	}
	if err := inv.Apply(work); err != nil {
		t.Fatalf("applying inverse: %v", err)
	}
	if !tree.Isomorphic(work, base) {
		t.Fatalf("round trip lost the original:\n%v\nvs\n%v", work, base)
	}
	// Surviving nodes keep their identifiers.
	for _, n := range base.PreOrder() {
		got := work.Node(n.ID())
		if got == nil || got.Label() != n.Label() || got.Value() != n.Value() {
			t.Fatalf("node %v not restored (got %v)", n, got)
		}
	}
}

func TestInvertKindMapping(t *testing.T) {
	base := sample()
	s := Script{
		Ins(7, "s", "v", 2, 1),
		Del(7),
	}
	inv, _, err := Invert(s, base)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order: first undo the delete (re-insert), then the insert
	// (delete).
	if inv[0].Kind != Insert || inv[0].Node != 7 || inv[0].Pos != 1 {
		t.Fatalf("inv[0] = %v, want re-insert of 7 at position 1", inv[0])
	}
	if inv[1].Kind != Delete || inv[1].Node != 7 {
		t.Fatalf("inv[1] = %v, want delete of 7", inv[1])
	}
}

func TestInvertIntraParentMove(t *testing.T) {
	base := tree.MustParse(`r
  x "a"
  x "b"
  x "c"
  x "d"`)
	// Reverse the children with three moves.
	s := Script{
		Mov(2, 1, 4), // a to the end: b c d a
		Mov(3, 1, 3), // b after d: c d b a... positions are detach-first
		Mov(4, 1, 3),
	}
	inv, _, err := Invert(s, base)
	if err != nil {
		t.Fatal(err)
	}
	work := base.Clone()
	if err := s.Apply(work); err != nil {
		t.Fatal(err)
	}
	if err := inv.Apply(work); err != nil {
		t.Fatal(err)
	}
	if !tree.Isomorphic(work, base) {
		t.Fatalf("moves not undone:\n%v", work)
	}
}

func TestInvertErrors(t *testing.T) {
	base := sample()
	for _, s := range []Script{
		{Del(999)},
		{Upd(999, "", "x")},
		{Mov(999, 1, 1)},
		{Del(1)}, // root
		{{Kind: Kind(42)}},
		{Del(2)}, // non-leaf: replay fails
	} {
		if _, _, err := Invert(s, base); err == nil {
			t.Errorf("expected error inverting %v", s)
		}
	}
}

// TestInvertPropertyGeneratedScripts inverts the scripts our own
// generator produces for random perturbations: forward + inverse must be
// the identity (up to isomorphism) for every one.
func TestInvertPropertyGeneratedScripts(t *testing.T) {
	// Local import cycle rules keep gen out of package edit tests'
	// internal form; build the perturbed pairs by hand with random-ish
	// fixed scripts over a synthetic tree instead.
	base := tree.MustParse(`doc
  para
    s "one one one"
    s "two two two"
    s "three three three"
  para
    s "four four four"
    s "five five five"
  para
    s "six six six"`)
	scripts := []Script{
		{Mov(3, 6, 1), Del(5), Ins(11, "s", "new", 2, 1)},
		{Upd(4, "two two two", "TWO"), Mov(6, 2, 4), Mov(9, 6, 1)},
		{Ins(11, "para", "", 1, 4), Mov(6, 11, 1), Mov(2, 11, 1)},
		{Del(10), Del(9), Upd(7, "four four four", "4")},
	}
	for i, s := range scripts {
		work := base.Clone()
		inv, _, err := Invert(s, base)
		if err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
		if err := s.Apply(work); err != nil {
			t.Fatalf("script %d forward: %v", i, err)
		}
		if err := inv.Apply(work); err != nil {
			t.Fatalf("script %d backward: %v", i, err)
		}
		if !tree.Isomorphic(work, base) {
			t.Fatalf("script %d: not restored\nforward: %v\ninverse: %v\ngot:\n%v", i, s, inv, work)
		}
		if err := work.Validate(); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
	}
}

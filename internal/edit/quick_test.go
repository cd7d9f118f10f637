package edit

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ladiff/internal/tree"
)

// randomValidScript generates a script of valid operations by choosing
// each against the evolving tree state, so the whole sequence applies.
func randomValidScript(rng *rand.Rand, base *tree.Tree, n int) Script {
	work := base.Clone()
	var script Script
	for i := 0; i < n; i++ {
		nodes := work.PreOrder()
		var op Op
		switch rng.Intn(4) {
		case 0: // insert under a random node
			parent := nodes[rng.Intn(len(nodes))]
			op = Ins(work.IDBound(), "x", fmt.Sprintf("v%d", i), parent.ID(), 1+rng.Intn(parent.NumChildren()+1))
		case 1: // delete a random non-root leaf, if any
			var leaves []*tree.Node
			for _, nd := range nodes {
				if nd.IsLeaf() && !nd.IsRoot() {
					leaves = append(leaves, nd)
				}
			}
			if len(leaves) == 0 {
				continue
			}
			op = Del(leaves[rng.Intn(len(leaves))].ID())
		case 2: // update anything
			op = Upd(nodes[rng.Intn(len(nodes))].ID(), "", fmt.Sprintf("u%d", i))
		case 3: // move a non-root under a non-descendant
			var candidates []*tree.Node
			for _, nd := range nodes {
				if !nd.IsRoot() {
					candidates = append(candidates, nd)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			mv := candidates[rng.Intn(len(candidates))]
			var targets []*tree.Node
			for _, nd := range nodes {
				if nd != mv && !tree.IsAncestor(mv, nd) {
					targets = append(targets, nd)
				}
			}
			if len(targets) == 0 {
				continue
			}
			target := targets[rng.Intn(len(targets))]
			limit := target.NumChildren() + 1
			if mv.Parent() == target {
				limit = target.NumChildren()
			}
			if limit < 1 {
				continue
			}
			op = Mov(mv.ID(), target.ID(), 1+rng.Intn(limit))
		}
		if op.Kind == 0 {
			continue
		}
		if err := op.Apply(work); err != nil {
			// Should not happen by construction; make the property fail
			// loudly through an impossible op.
			panic(err)
		}
		script = append(script, op)
	}
	return script
}

// TestQuickScriptsApplyAndInvert: every generated-valid script applies
// cleanly to a fresh clone, keeps the tree valid, and inverts exactly.
func TestQuickScriptsApplyAndInvert(t *testing.T) {
	base := tree.MustParse(`doc
  a
    x "1"
    x "2"
  b
    x "3"
  c "leafy"`)
	f := func(seed int64, opCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		script := randomValidScript(rng, base, int(opCount%25))
		work := base.Clone()
		if err := script.Apply(work); err != nil {
			return false
		}
		if err := work.Validate(); err != nil {
			return false
		}
		inv, err := Invert(script, base)
		if err != nil {
			return false
		}
		if err := inv.Apply(work); err != nil {
			return false
		}
		return tree.Isomorphic(work, base) && work.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDistancesConsistent: d equals the script length and e is
// bounded by d times the largest subtree, for generated-valid scripts.
func TestQuickDistancesConsistent(t *testing.T) {
	base := tree.MustParse(`doc
  a
    x "1"
    x "2"
  b
    x "3"`)
	f := func(seed int64, opCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		script := randomValidScript(rng, base, int(opCount%15))
		d, e, result, err := script.Distances(base)
		if err != nil || result == nil {
			return false
		}
		if d != len(script) {
			return false
		}
		// e is bounded by ops × (max possible subtree size).
		return e >= 0 && e <= d*(base.Len()+int(opCount))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

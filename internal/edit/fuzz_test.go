package edit

import (
	"encoding/json"
	"math/rand"
	"testing"

	"ladiff/internal/tree"
)

// FuzzScriptApply decodes arbitrary bytes as a JSON edit script and
// applies it to a fixed small tree. Every input must end in an error
// that leaves the input tree unchanged, or in a valid tree whose ID
// bound grew by at most the script's length. Each op is also applied
// alone, checking Op.Apply's promise that a failed op changes nothing.
func FuzzScriptApply(f *testing.F) {
	for _, s := range []Script{
		randomValidScript(rand.New(rand.NewSource(1)), sample(), 12),
		{Ins(1<<40, "s", "v", 2, 1)},
		{Ins(-3, "s", "v", 2, 1)},
		{Ins(2, "s", "v", 5, 1)},
		{Mov(2, 3, 1)},
		{Mov(3, 5, 9)},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if json.Unmarshal(data, &s) != nil {
			return
		}
		base := sample()
		want := base.String()
		out, err := s.ApplyTo(base)
		if base.String() != want || base.Validate() != nil {
			t.Fatalf("ApplyTo changed its input tree")
		}
		if err == nil {
			if err := out.Validate(); err != nil {
				t.Fatalf("applied script left an invalid tree: %v", err)
			}
			if limit := base.IDBound() + tree.NodeID(len(s)); out.IDBound() > limit {
				t.Fatalf("IDBound %d exceeds %d", out.IDBound(), limit)
			}
		}
		work := base.Clone()
		for _, op := range s {
			before := work.String()
			if err := op.Apply(work); err != nil {
				if work.String() != before || work.Validate() != nil {
					t.Fatalf("failed %v changed the tree", op)
				}
				return
			}
		}
	})
}

package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ladiff/internal/gen"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// multiSchemaPair builds a tree pair whose label ranks each hold several
// labels, so the parallel rank rounds actually fan out (the document
// schema from internal/gen has exactly one label per rank, which always
// takes the singleton sequential path). Rank 0 holds leaf labels
// {la, lb, lc}; rank 1 holds internal labels {A, B, C}; the root is doc.
// The new tree reuses most of the old values with seeded edits, deletes,
// and inserts so the matcher finds both exact and threshold matches.
func multiSchemaPair(seed int64) (*tree.Tree, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"red", "green", "blue", "cyan", "teal", "plum", "rust", "jade"}
	sentence := func() string {
		n := 3 + rng.Intn(5)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += vocab[rng.Intn(len(vocab))]
		}
		return s
	}
	internals := []tree.Label{"A", "B", "C"}
	leafLabels := []tree.Label{"la", "lb", "lc"}

	old := tree.NewWithRoot("doc", "")
	type slot struct {
		parent tree.Label
		leaves []struct {
			label tree.Label
			value string
		}
	}
	var slots []slot
	for i := 0; i < 6; i++ {
		s := slot{parent: internals[rng.Intn(len(internals))]}
		for j := 0; j < 2+rng.Intn(4); j++ {
			s.leaves = append(s.leaves, struct {
				label tree.Label
				value string
			}{leafLabels[rng.Intn(len(leafLabels))], sentence()})
		}
		slots = append(slots, s)
	}
	for _, s := range slots {
		p := old.AppendChild(old.Root(), s.parent, "")
		for _, l := range s.leaves {
			old.AppendChild(p, l.label, l.value)
		}
	}

	// New version: drop one slot, edit some values, add one fresh slot.
	niu := tree.NewWithRoot("doc", "")
	for i, s := range slots {
		if i == len(slots)-1 {
			continue // deletion
		}
		p := niu.AppendChild(niu.Root(), s.parent, "")
		for _, l := range s.leaves {
			v := l.value
			switch rng.Intn(4) {
			case 0: // word-level update, usually within threshold
				v = v + " " + vocab[rng.Intn(len(vocab))]
			case 1: // full rewrite
				v = sentence()
			}
			niu.AppendChild(p, l.label, v)
		}
	}
	p := niu.AppendChild(niu.Root(), internals[rng.Intn(len(internals))], "")
	for j := 0; j < 3; j++ {
		niu.AppendChild(p, leafLabels[rng.Intn(len(leafLabels))], sentence())
	}
	return old, niu
}

func pairsEqual(a, b *Matching) bool {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// runBoth executes one algorithm sequentially (Parallelism 1) and in
// parallel (Parallelism 4) and asserts identical matchings and an
// identical Stats struct.
func runBoth(t *testing.T, name string, t1, t2 *tree.Tree,
	algo func(*tree.Tree, *tree.Tree, Options) (*Matching, error)) {
	t.Helper()
	seqStats, parStats := &Stats{}, &Stats{}
	seq, err := algo(t1, t2, Options{Parallelism: 1, Stats: seqStats})
	if err != nil {
		t.Fatalf("%s sequential run: %v", name, err)
	}
	par, err := algo(t1, t2, Options{Parallelism: 4, Stats: parStats})
	if err != nil {
		t.Fatalf("%s parallel run: %v", name, err)
	}
	if !pairsEqual(seq, par) {
		t.Fatalf("%s: parallel matching differs from sequential\nseq: %v\npar: %v",
			name, seq.Pairs(), par.Pairs())
	}
	if *seqStats != *parStats {
		t.Fatalf("%s: stats diverge:\nseq: %+v\npar: %+v", name, *seqStats, *parStats)
	}
}

// TestQuickParallelMemoEquivalence is the property test required by the
// performance work: on generated multi-label trees, FastMatch and Match
// under parallel rank rounds return a matching identical to the
// sequential run, with identical work counters.
func TestQuickParallelMemoEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t1, t2 := multiSchemaPair(seed)
			runBoth(t, "FastMatch", t1, t2, FastMatch)
			runBoth(t, "Match", t1, t2, Match)
		})
	}
}

// TestParallelMemoEquivalenceOnDocuments repeats the equivalence check
// on the document-schema generator with perturbations — singleton rank
// groups, so this exercises the sequential fallback itself.
func TestParallelMemoEquivalenceOnDocuments(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		doc := gen.Document(gen.DocParams{Seed: seed, Sections: 3, DuplicateRate: 0.2})
		pert, err := gen.Perturb(doc, gen.Mix(seed, 12))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBoth(t, "FastMatch", doc, pert.New, FastMatch)
		})
	}
}

// TestParallelismValidation pins the Options.Parallelism contract:
// negative values are rejected, zero means "use all cores".
func TestParallelismValidation(t *testing.T) {
	t1, t2 := multiSchemaPair(1)
	if _, err := FastMatch(t1, t2, Options{Parallelism: -1}); err == nil {
		t.Fatal("Parallelism: -1 accepted, want error")
	}
	m, err := FastMatch(t1, t2, Options{Parallelism: 0})
	if err != nil {
		t.Fatalf("Parallelism: 0 rejected: %v", err)
	}
	seq, err := FastMatch(t1, t2, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(m, seq) {
		t.Fatal("default parallelism and sequential disagree")
	}
}

package match_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// multiSchemaPair builds a tree pair whose label ranks each hold several
// labels (the document schema from internal/gen has exactly one label
// per rank). Rank 0 holds leaf labels {la, lb, lc}; rank 1 holds
// internal labels {A, B, C}; the root is doc. The new tree reuses most
// of the old values with seeded edits, deletes, and inserts so the
// matcher finds both exact and threshold matches.
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

// workPin is one run's matching size and §8 work counters.
type workPin struct {
	pairs  int
	r1, r2 int64
}

// checkWorkPin runs algo on (t1, t2) and compares the matching size,
// r1 and r2 with want.
func checkWorkPin(t *testing.T, name string, t1, t2 *tree.Tree,
	algo func(*tree.Tree, *tree.Tree, Options) (*Matching, error), want workPin) {
	t.Helper()
	stats := &Stats{}
	m, err := algo(t1, t2, Options{Stats: stats})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := (workPin{m.Len(), stats.LeafCompares, stats.PartnerChecks}); got != want {
		t.Errorf("%s: pairs/r1/r2 = %d/%d/%d, want %d/%d/%d",
			name, got.pairs, got.r1, got.r2, want.pairs, want.r1, want.r2)
	}
}

// TestQuickParallelMemoEquivalence pins FastMatch and Match on generated
// multi-label trees, whose rank groups hold several labels each: every
// seed's matching size, r1 and r2 must equal the values recorded from
// the sequential runs of the engine that could still also process a
// rank group's labels concurrently. A round that skipped or reordered
// labels within a rank group would move them. The name predates the
// recorded pins.
func TestQuickParallelMemoEquivalence(t *testing.T) {
	want := [25]struct{ fast, match workPin }{
		{workPin{16, 41, 65}, workPin{16, 36, 58}},
		{workPin{20, 71, 76}, workPin{20, 49, 72}},
		{workPin{18, 53, 80}, workPin{18, 37, 72}},
		{workPin{20, 41, 64}, workPin{20, 31, 64}},
		{workPin{12, 108, 126}, workPin{12, 71, 69}},
		{workPin{18, 31, 54}, workPin{18, 34, 54}},
		{workPin{21, 49, 69}, workPin{21, 41, 69}},
		{workPin{9, 63, 123}, workPin{9, 39, 70}},
		{workPin{12, 86, 120}, workPin{12, 59, 67}},
		{workPin{19, 81, 119}, workPin{19, 57, 89}},
		{workPin{18, 19, 62}, workPin{18, 16, 56}},
		{workPin{12, 82, 146}, workPin{12, 53, 86}},
		{workPin{12, 80, 145}, workPin{12, 51, 80}},
		{workPin{11, 94, 94}, workPin{11, 63, 54}},
		{workPin{12, 49, 104}, workPin{12, 31, 64}},
		{workPin{20, 78, 68}, workPin{20, 63, 68}},
		{workPin{15, 62, 108}, workPin{15, 41, 64}},
		{workPin{11, 80, 129}, workPin{11, 50, 75}},
		{workPin{18, 68, 82}, workPin{18, 48, 70}},
		{workPin{20, 20, 60}, workPin{20, 17, 60}},
		{workPin{21, 59, 99}, workPin{21, 59, 88}},
		{workPin{10, 100, 175}, workPin{10, 60, 92}},
		{workPin{19, 67, 107}, workPin{19, 50, 98}},
		{workPin{20, 65, 68}, workPin{20, 50, 68}},
		{workPin{13, 70, 90}, workPin{13, 50, 54}},
	}
	for seed, w := range want {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t1, t2 := multiSchemaPair(int64(seed))
			checkWorkPin(t, "FastMatch", t1, t2, FastMatch, w.fast)
			checkWorkPin(t, "Match", t1, t2, Match, w.match)
		})
	}
}

// TestParallelMemoEquivalenceOnDocuments pins FastMatch on perturbed
// document-schema trees, whose rank groups are singletons, to the
// matching size, r1 and r2 recorded from the sequential runs of the
// engine that could still also process rank groups concurrently. The
// name predates the recorded pins.
func TestParallelMemoEquivalenceOnDocuments(t *testing.T) {
	want := map[int64]workPin{1: {74, 651, 491}, 2: {66, 293, 546}, 3: {66, 592, 774}}
	for seed := int64(1); seed <= 3; seed++ {
		doc := gen.Document(gen.DocParams{Seed: seed, Sections: 3, DuplicateRate: 0.2})
		pert, err := gen.Perturb(doc, gen.Mix(seed, 12))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkWorkPin(t, "FastMatch", doc, pert.New, FastMatch, want[seed])
		})
	}
}

// TestWorkBudgetTripDeterministic: a run that exhausts its work budget
// stops at the same comparison every time. On a multi-label pair with
// half its unbudgeted r1+r2 as budget, every run of Match and FastMatch
// under default Options fails with ErrDegraded and reports the same
// Stats, the values recorded from sequential runs before the rounds
// lost their concurrent mode (under which the trip point depended on
// goroutine scheduling).
func TestWorkBudgetTripDeterministic(t *testing.T) {
	t1, t2 := gen.MultiLabelPair(1, 4, 200, 1)
	for _, tc := range []struct {
		name   string
		algo   func(*tree.Tree, *tree.Tree, Options) (*Matching, error)
		budget int64 // half the unbudgeted r1+r2
		want   Stats
	}{
		{"Match", Match, 37295 / 2, Stats{LeafCompares: 17764, PartnerChecks: 888, EffectiveLeafCompares: 17764}},
		{"FastMatch", FastMatch, 62504 / 2, Stats{LeafCompares: 31253, EffectiveLeafCompares: 31253}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				stats := &Stats{}
				_, err := tc.algo(t1, t2, Options{Stats: stats, WorkBudget: tc.budget})
				if !errors.Is(err, lderr.ErrDegraded) {
					t.Fatalf("run %d: err %v, want ErrDegraded", i, err)
				}
				if *stats != tc.want {
					t.Fatalf("run %d: stats %+v, want %+v", i, *stats, tc.want)
				}
			}
		})
	}
}

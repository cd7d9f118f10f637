package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"ladiff/internal/tree"
)

// Class is one named workload: a document shape crossed with a
// perturbation recipe. The conformance matrix (internal/conformance)
// and the benchmark harness share this list so "every workload class"
// means the same thing everywhere.
type Class struct {
	Name string
	Doc  DocParams
	// Pert builds the perturbation for a given seed.
	Pert func(seed int64) PerturbParams
}

// Classes returns the standard workload classes. The first six are the
// battery classes: document shape and duplicate pressure crossed with
// the perturbation mixes, each stressing a different phase (wide
// sibling lists the generator, near-duplicates the matcher's threshold
// decisions, move-heavy the alignment pass). The last, sparse-1pct, is
// the fingerprint ladder's home turf: a large document of long
// sentences where roughly 1% of them change between versions, so almost
// every subtree is claimable wholesale and leaf comparison dominates the
// unpruned run.
func Classes() []Class {
	return []Class{
		{
			Name: "default-mix",
			Doc:  DocParams{},
			Pert: func(seed int64) PerturbParams { return Mix(seed, 24) },
		},
		{
			Name: "wide-flat",
			Doc: DocParams{
				Sections: 2, MinParagraphs: 1, MaxParagraphs: 2,
				MinSentences: 64, MaxSentences: 96,
			},
			Pert: func(seed int64) PerturbParams { return Mix(seed, 200) },
		},
		{
			Name: "near-duplicates",
			Doc:  DocParams{DuplicateRate: 0.35, Vocabulary: 120},
			Pert: func(seed int64) PerturbParams { return Mix(seed, 20) },
		},
		{
			Name: "move-heavy",
			Doc:  DocParams{},
			Pert: func(seed int64) PerturbParams {
				return PerturbParams{Seed: seed, MoveSentences: 18, MoveParagraphs: 6}
			},
		},
		{
			Name: "insert-delete-heavy",
			Doc:  DocParams{},
			Pert: func(seed int64) PerturbParams {
				return PerturbParams{Seed: seed, InsertSentences: 14, DeleteSentences: 14}
			},
		},
		{
			Name: "update-heavy",
			Doc:  DocParams{},
			Pert: func(seed int64) PerturbParams {
				return PerturbParams{Seed: seed, UpdateSentences: 20, UpdateFraction: 0.4}
			},
		},
		{
			Name: "sparse-1pct",
			Doc:  SparseDoc(),
			Pert: SparsePert,
		},
	}
}

// Sections is the size-sweep workload: a document of n sections with a
// large vocabulary under a fixed small Mix perturbation, seeded by n so
// every sweep sees the same documents. The scaling studies (E6b) and
// the quality/runtime frontier harness (E14) share this one definition,
// so their size axes mean the same workload.
func Sections(n int) Class {
	return Class{
		Name: fmt.Sprintf("sections-%d", n),
		Doc:  DocParams{Seed: int64(800 + n), Sections: n, Vocabulary: 8000},
		Pert: func(seed int64) PerturbParams { return Mix(seed, 6) },
	}
}

// SparseDoc is the sparse-1pct document shape: ~224 sections of
// default paragraph fanout (≈ 4000 sentences) with long sentences
// (16–28 words), sized so the pairing work of an unpruned match dwarfs
// the linear costs (hashing, generation) the pruned run keeps.
func SparseDoc() DocParams {
	return DocParams{
		Sections: 224,
		MinWords: 16, MaxWords: 28,
	}
}

// SparsePert edits roughly 1% of the sparse document's sentences: the
// standard Mix recipe at 40 operations against ≈ 4000 sentences.
func SparsePert(seed int64) PerturbParams {
	return Mix(seed, 40)
}

// RightCombPair returns a seeded pair of right-deep combs of the given
// number of sentences (2·leaves+1 nodes each): every spine paragraph
// holds a sentence as its first child and the next spine paragraph as
// its last. Each spine node then has a left sibling, the worst case of
// Zhang–Shasha's leftmost-path decomposition (every spine node is a
// keyroot, so the left-order DP area grows as n⁴), while mirrored
// sibling order walks the spine as one path. The new comb rewrites a
// word in about a tenth of the sentences, deletes one and inserts
// another. The
// pair is deliberately not in Classes(): the document batteries and
// the benchmark corpus keep their shapes.
func RightCombPair(seed int64, leaves int) (old, new *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	sentence := func() string {
		words := make([]string, 6+rng.Intn(9))
		for i := range words {
			words[i] = word(rng, 600)
		}
		return strings.Join(words, " ")
	}
	values := make([]string, leaves)
	for i := range values {
		values[i] = sentence()
	}
	old = rightComb(values)
	for i := 0; i < leaves/10; i++ {
		k := rng.Intn(leaves)
		words := strings.Fields(values[k])
		words[rng.Intn(len(words))] = word(rng, 600)
		values[k] = strings.Join(words, " ")
	}
	if leaves > 0 {
		k := rng.Intn(leaves)
		values = append(values[:k], values[k+1:]...)
		k = rng.Intn(len(values) + 1)
		values = append(values[:k], append([]string{sentence()}, values[k:]...)...)
	}
	return old, rightComb(values)
}

// rightComb builds the right-deep comb holding values as its sentences,
// top to bottom.
func rightComb(values []string) *tree.Tree {
	t := tree.NewWithRoot(LabelParagraph, "")
	spine := t.Root()
	for _, v := range values {
		t.AppendChild(spine, LabelSentence, v)
		spine = t.AppendChild(spine, LabelParagraph, "")
	}
	return t
}

// MultiLabelPair returns a seeded pair of multi-label trees: a "doc"
// root over slots internal nodes of 2–5 leaves each, the internal labels
// drawn from labels names (i0, i1, …) and the leaf labels from labels
// more (l0, l1, …). Every bottom-up rank but the root's then holds
// several labels; the document schema has one label per rank. edit scales
// the new side's edits: at 1 it rewrites one word in 25% of the leaves,
// replaces 10% and deletes 5%, then moves a leaf between random slots
// slots/3 times and swaps slots/10 pairs of slots; at 0 the new side is
// a copy. Like RightCombPair, the pair is not in Classes().
func MultiLabelPair(seed int64, labels, slots int, edit float64) (old, new *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	sentence := func() string {
		words := make([]string, 6+rng.Intn(9))
		for i := range words {
			words[i] = word(rng, 600)
		}
		return strings.Join(words, " ")
	}
	pick := func(prefix string) tree.Label {
		return tree.Label(fmt.Sprintf("%s%d", prefix, rng.Intn(labels)))
	}
	type leaf struct {
		label tree.Label
		value string
	}
	type slot struct {
		label  tree.Label
		leaves []leaf
	}
	all := make([]slot, slots)
	for i := range all {
		all[i].label = pick("i")
		for j := 2 + rng.Intn(4); j > 0; j-- {
			all[i].leaves = append(all[i].leaves, leaf{pick("l"), sentence()})
		}
	}
	build := func() *tree.Tree {
		t := tree.NewWithRoot("doc", "")
		for _, s := range all {
			p := t.AppendChild(t.Root(), s.label, "")
			for _, l := range s.leaves {
				t.AppendChild(p, l.label, l.value)
			}
		}
		return t
	}
	old = build()

	for i := range all {
		var kept []leaf
		for _, l := range all[i].leaves {
			switch p := rng.Float64(); {
			case p < 0.05*edit:
				continue
			case p < 0.15*edit:
				l.value = sentence()
			case p < 0.40*edit:
				words := strings.Fields(l.value)
				words[rng.Intn(len(words))] = word(rng, 600)
				l.value = strings.Join(words, " ")
			}
			kept = append(kept, l)
		}
		all[i].leaves = kept
	}
	for n := int(edit * float64(slots/3)); n > 0; n-- {
		src, dst := &all[rng.Intn(slots)], &all[rng.Intn(slots)]
		if len(src.leaves) == 0 {
			continue
		}
		k := rng.Intn(len(src.leaves))
		l := src.leaves[k]
		src.leaves = append(src.leaves[:k], src.leaves[k+1:]...)
		k = rng.Intn(len(dst.leaves) + 1)
		dst.leaves = append(dst.leaves[:k], append([]leaf{l}, dst.leaves[k:]...)...)
	}
	for n := int(edit * float64(slots/10)); n > 0; n-- {
		i, j := rng.Intn(slots), rng.Intn(slots)
		all[i], all[j] = all[j], all[i]
	}
	return old, build()
}

package match

import (
	"fmt"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/tree"
)

// handDocument builds a 77-node document by hand (package match cannot
// import gen): 4 sections of 3 paragraphs of 5 distinct sentences.
func handDocument() *tree.Tree {
	t := tree.NewWithRoot("document", "")
	for s := 0; s < 4; s++ {
		sec := t.AppendChild(t.Root(), "section", "")
		for p := 0; p < 3; p++ {
			par := t.AppendChild(sec, "paragraph", "")
			for k := 0; k < 5; k++ {
				t.AppendChild(par, "sentence",
					fmt.Sprintf("Sentence %d of paragraph %d in section %d says little.", k, p, s))
			}
		}
	}
	return t
}

// runFast runs FastMatch's label rounds on a matcher the test can
// inspect afterwards.
func runFast(t *testing.T, t1, t2 *tree.Tree) *matcher {
	t.Helper()
	mr, err := newMatcher(t1, t2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mr.rounds((*matcher).matchLabelFast)
	if err := mr.runErr(); err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestFastMatchCloneTokenizesNothing: matching a document against its
// clone compares only byte-identical values, which the token path
// accepts without tokenizing either side.
func TestFastMatchCloneTokenizesNothing(t *testing.T) {
	doc := handDocument()
	mr := runFast(t, doc, doc.Clone())
	if got := mr.m.Len(); got != doc.Len() {
		t.Fatalf("matched %d of %d nodes", got, doc.Len())
	}
	if got := mr.opts.Stats.LeafCompares; got != 60 {
		t.Errorf("r1 = %d, want 60 (one per sentence)", got)
	}
	if n1, n2 := filled(mr.toks1), filled(mr.toks2); n1 != 0 || n2 != 0 {
		t.Errorf("tokenized %d old and %d new values, want none", n1, n2)
	}

	// One edited sentence makes the caches fill: the test can tell.
	edited := doc.Clone()
	leaf := edited.Leaves()[7]
	edited.SetValue(leaf, leaf.Value()+" Really.")
	mr = runFast(t, doc, edited)
	if n1, n2 := filled(mr.toks1), filled(mr.toks2); n1 == 0 || n2 == 0 {
		t.Errorf("edited pair tokenized %d old and %d new values, want some of each", n1, n2)
	}
}

// filled counts the non-nil slots of a token cache.
func filled(cache []*compare.Tokens) int {
	n := 0
	for _, t := range cache {
		if t != nil {
			n++
		}
	}
	return n
}

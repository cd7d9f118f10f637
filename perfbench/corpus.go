package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ladiff"
	"ladiff/internal/gen"
	"ladiff/internal/htmldoc"
	"ladiff/internal/latex"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// Generated documents need two fixes before they can stand in for real
// ones:
//
//   - gen's sentences carry no terminal punctuation, so every front end
//     merges a paragraph's sentences into one on parse (a 780-node
//     document parses back as 331 nodes). text ends each sentence with
//     a period, after which html and latex round-trip isomorphic.
//   - xmldoc.Render of a gen tree emits "<section Section 1>", which the
//     XML parser rejects, so XML inputs are written directly.
//
// Every rendered input is parsed back once and its node count checked
// against what the generated tree predicts.

// tidy drops the paragraphs a perturbation emptied, which no front end
// renders.
func tidy(t *tree.Tree) {
	for _, p := range t.Chain(gen.LabelParagraph) {
		if p.NumChildren() == 0 {
			if err := t.Delete(p); err != nil {
				panic(err) // a leaf that is not the root always deletes
			}
		}
	}
}

// document generates a document. Its shape and words are fixed by
// p.Seed, which each workload takes from the input's position in its
// corpus; text then gives it the run seed's words.
func document(p gen.DocParams) *tree.Tree {
	t := gen.Document(p)
	tidy(t)
	return t
}

// perturb applies p to a clone of t.
func perturb(t *tree.Tree, p gen.PerturbParams) (*tree.Tree, error) {
	res, err := gen.Perturb(t, p)
	if err != nil {
		return nil, err
	}
	tidy(res.New)
	return res.New, nil
}

// vocabulary bounds gen's word indices (its largest vocabulary is 8000).
const vocabulary = 10000

// wording renames gen's words ("w" + index) through a permutation of
// the vocabulary drawn from the run seed. Word equality, and so every
// matching decision, is the same under every seed: the seed changes the
// text of the corpus, not the shape of its work.
type wording []int

func newWording(seed int64) wording { return rand.New(rand.NewSource(seed)).Perm(vocabulary) }

// text returns a copy of t with its words renamed and every sentence
// ended with a period.
func (w wording) text(t *tree.Tree) *tree.Tree {
	c := t.Clone()
	for _, n := range c.Chain(gen.LabelSentence) {
		words := strings.Fields(n.Value())
		for j, word := range words {
			if i, err := strconv.Atoi(strings.TrimPrefix(word, "w")); err == nil && i >= 0 && i < len(w) {
				words[j] = fmt.Sprintf("w%03d", w[i])
			}
		}
		c.SetValue(n, strings.Join(words, " ")+".")
	}
	return c
}

// render writes t in format and returns the node count its parse must
// yield: the tree's own size for html and latex; one extra node per
// section for text (the heading becomes a one-sentence paragraph); one
// "#text" leaf per sentence for xml.
func render(format string, t *tree.Tree) (string, int, error) {
	switch format {
	case "html":
		return htmldoc.Render(t), t.Len(), nil
	case "latex":
		return latex.RenderPlain(t), t.Len(), nil
	case "text":
		return textdoc.Render(t), t.Len() + len(t.Chain(gen.LabelSection)), nil
	case "xml":
		return renderXML(t), t.Len() + len(t.Chain(gen.LabelSentence)), nil
	}
	return "", 0, fmt.Errorf("render: unknown format %q", format)
}

// renderXML writes a gen document as XML, section titles as attributes.
func renderXML(t *tree.Tree) string {
	var b strings.Builder
	b.WriteString("<document>")
	for _, sec := range t.Root().Children() {
		fmt.Fprintf(&b, "<section title=%q>", sec.Value())
		for _, p := range sec.Children() {
			b.WriteString("<paragraph>")
			for _, s := range p.Children() {
				b.WriteString("<sentence>")
				b.WriteString(s.Value())
				b.WriteString("</sentence>")
			}
			b.WriteString("</paragraph>")
		}
		b.WriteString("</section>")
	}
	b.WriteString("</document>")
	return b.String()
}

// parse runs the front end for format.
func parse(format, src string) (*tree.Tree, error) {
	switch format {
	case "html":
		return ladiff.ParseHTML(src)
	case "latex":
		return ladiff.ParseLatex(src)
	case "text":
		return ladiff.ParseText(src), nil
	case "xml":
		return ladiff.ParseXML(src)
	}
	return nil, fmt.Errorf("parse: unknown format %q", format)
}

// renderChecked renders t and asserts that the rendering parses back to
// the predicted node count, returning the source and that count.
func renderChecked(format string, t *tree.Tree) (string, int, error) {
	src, want, err := render(format, t)
	if err != nil {
		return "", 0, err
	}
	got, err := parse(format, src)
	if err != nil {
		return "", 0, fmt.Errorf("corpus: %s rendering does not parse: %w", format, err)
	}
	if got.Len() != want {
		return "", 0, fmt.Errorf("corpus: %s rendering of a %d-node tree parses as %d nodes, want %d",
			format, t.Len(), got.Len(), want)
	}
	return src, want, nil
}

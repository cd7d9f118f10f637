// Package textdoc parses plain text into the document trees the
// change-detection pipeline works on: blank-line-separated paragraphs of
// sentences. It is the simplest LaDiff front end (§7 notes the parser is
// the only piece that changes per document format).
package textdoc

import (
	"strings"

	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/latex"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Parse converts plain text into a document tree: the root is a document
// node, each blank-line-separated block a paragraph, each sentence a
// leaf. Sentence splitting follows the same rules as the LaTeX front end.
// Plain text cannot be malformed, so Parse never fails; ParseLimited is
// the variant with resource limits (which can).
func Parse(src string) *tree.Tree {
	t, err := ParseLimited(src, tree.Limits{})
	if err != nil {
		// Only fault injection can fail an unlimited text parse; surface
		// it the way an injected panic would be.
		panic(err)
	}
	return t
}

// ParseLimited is Parse with resource limits enforced while the tree is
// built: MaxBytes against the raw input up front, MaxNodes/MaxDepth at
// the first node past the limit. Limit violations are tagged
// lderr.ErrLimit.
func ParseLimited(src string, lim tree.Limits) (_ *tree.Tree, err error) {
	defer func() { err = lderr.TagAs(lderr.ErrParse, err) }()
	if err := fault.Check(fault.ParseText); err != nil {
		return nil, err
	}
	if err := lim.CheckBytes(len(src)); err != nil {
		return nil, err
	}
	defer tree.CatchLimit(&err)
	t := tree.New()
	t.Restrict(lim)
	defer t.Unrestrict()
	t.SetRoot(gen.LabelDocument, "")
	// A block is a run of lines that are not blank (whitespace only), and
	// its lines are the splitter's pieces. The '\r' of a CRLF needs no
	// rewriting: it is whitespace, which the splitter drops.
	var lines, sentences []string
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if strings.TrimSpace(line) != "" {
			lines = append(lines, line)
			if more {
				continue
			}
		}
		sentences = latex.AppendSentences(sentences[:0], lines)
		lines = lines[:0]
		if len(sentences) > 0 {
			para := t.AppendChild(t.Root(), gen.LabelParagraph, "")
			t.AppendChildren(para, gen.LabelSentence, sentences)
		}
	}
	return t, nil
}

// Render converts a document tree back to plain text: paragraphs
// separated by blank lines, one sentence per line. Containers other than
// paragraphs (sections from another front end) render their value as a
// heading line.
func Render(t *tree.Tree) string {
	var b strings.Builder
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		switch n.Label() {
		case gen.LabelSentence:
			b.WriteString(n.Value())
			b.WriteByte('\n')
		case gen.LabelParagraph, gen.LabelItem:
			for _, c := range n.Children() {
				rec(c)
			}
			b.WriteByte('\n')
		default:
			if n.Value() != "" {
				b.WriteString(n.Value())
				b.WriteString("\n\n")
			}
			for _, c := range n.Children() {
				rec(c)
			}
		}
	}
	if t.Root() != nil {
		rec(t.Root())
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

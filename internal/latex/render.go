package latex

import (
	"fmt"
	"strings"

	"ladiff/internal/delta"
	"ladiff/internal/tree"
)

// RenderPlain turns a document tree back into LaTeX source without any
// change markup. It is the inverse of Parse up to whitespace: parsing the
// output yields an isomorphic tree.
func RenderPlain(t *tree.Tree) string {
	var b strings.Builder
	b.WriteString("\\documentclass{article}\n\\begin{document}\n\n")
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		switch n.Label() {
		case LabelDocument:
			for _, c := range n.Children() {
				rec(c)
			}
		case LabelSection:
			fmt.Fprintf(&b, "\\section{%s}\n\n", n.Value())
			for _, c := range n.Children() {
				rec(c)
			}
		case LabelSubsection:
			fmt.Fprintf(&b, "\\subsection{%s}\n\n", n.Value())
			for _, c := range n.Children() {
				rec(c)
			}
		case LabelParagraph:
			for _, c := range n.Children() {
				rec(c)
			}
			b.WriteString("\n\n")
		case LabelList:
			b.WriteString("\\begin{itemize}\n")
			for _, c := range n.Children() {
				rec(c)
			}
			b.WriteString("\\end{itemize}\n\n")
		case LabelItem:
			b.WriteString("\\item ")
			for _, c := range n.Children() {
				rec(c)
			}
			b.WriteString("\n")
		case LabelSentence:
			b.WriteString(n.Value())
			b.WriteString("\n")
		}
	}
	if t.Root() != nil {
		rec(t.Root())
	}
	b.WriteString("\\end{document}\n")
	return b.String()
}

// Render produces the marked-up LaTeX document for a delta tree,
// following the Table 2 conventions of the paper:
//
//	sentence   insert → bold; delete → small; update → italic;
//	           move → small + label at the old position, footnote
//	           reference at the new position
//	paragraph  insert/delete → marginal note; move → marginal note +
//	           label
//	item       like paragraph
//	section    annotation (ins/del/upd/mov) in the heading
//	subsection likewise
//
// Move labels are S1, S2, … for sentences and P1, P2, … for paragraphs,
// items and containers, as in Figure 16.
func Render(dt *delta.Tree) string {
	r := &renderer{labels: map[*delta.Node]string{}}
	r.assignMoveLabels(dt.Root)
	var b strings.Builder
	b.Grow(len(markedHead) + r.size + len(markedTail))
	b.WriteString(markedHead)
	r.node(&b, dt.Root)
	b.WriteString(markedTail)
	return b.String()
}

const markedHead, markedTail = "\\documentclass{article}\n\\usepackage{marginnote}\n\\begin{document}\n\n", "\\end{document}\n"

// nodeMarkup and changeMarkup are the markup bytes Render's size estimate
// adds per node and per changed node. On gen's classes at 300–1500 nodes
// a pair, the output is 0.94–0.99 of the estimate: one allocation.
const nodeMarkup, changeMarkup = 2, 24

type renderer struct {
	labels     map[*delta.Node]string // MoveSource and MoveDest → "S1"/"P2"
	sentenceCt int
	blockCt    int
	size       int // the output size estimate, without head and tail
}

// assignMoveLabels walks the delta tree once, numbering move pairs in
// document order of their destinations so footnote references read
// naturally, and sums the output size estimate.
func (r *renderer) assignMoveLabels(n *delta.Node) {
	if n == nil {
		return
	}
	r.size += len(n.Value) + nodeMarkup
	if n.Kind != delta.Identity {
		r.size += changeMarkup
	}
	if n.Kind == delta.MoveSource && n.Dest() != nil {
		if _, done := r.labels[n]; !done {
			var label string
			if n.Label == LabelSentence {
				r.sentenceCt++
				label = fmt.Sprintf("S%d", r.sentenceCt)
			} else {
				r.blockCt++
				label = fmt.Sprintf("P%d", r.blockCt)
			}
			r.labels[n] = label
			r.labels[n.Dest()] = label
		}
	}
	for _, c := range n.Children {
		r.assignMoveLabels(c)
	}
}

func (r *renderer) node(b *strings.Builder, n *delta.Node) {
	switch n.Label {
	case LabelDocument, "delta-root":
		r.children(b, n)
	case LabelSection, LabelSubsection:
		r.heading(b, n)
	case LabelParagraph:
		r.block(b, n, "paragraph")
	case LabelItem:
		r.item(b, n)
	case LabelList:
		r.list(b, n)
	case LabelSentence:
		r.sentence(b, n)
	default:
		// Unknown label (e.g. from a non-LaTeX front end): render its
		// value and recurse, so nothing is silently dropped.
		if n.Value != "" {
			b.WriteString(n.Value)
			b.WriteString("\n")
		}
		r.children(b, n)
	}
}

func (r *renderer) children(b *strings.Builder, n *delta.Node) {
	for _, c := range n.Children {
		r.node(b, c)
	}
}

func (r *renderer) heading(b *strings.Builder, n *delta.Node) {
	cmd := "\\section"
	if n.Label == LabelSubsection {
		cmd = "\\subsection"
	}
	title := n.Value
	switch n.Kind {
	case delta.Inserted:
		title = "(ins) " + title
	case delta.Updated:
		title = "(upd) " + title
	case delta.Deleted:
		title = "(del) " + title
	case delta.MoveDest:
		title = fmt.Sprintf("(mov from %s) %s", r.labels[n], title)
	case delta.MoveSource:
		// Old position of a moved container: a labelled stub heading.
		fmt.Fprintf(b, "%s*{[%s: moved %s]}\n\n", cmd, r.labels[n], n.Label)
		return
	}
	fmt.Fprintf(b, "%s{%s}\n\n", cmd, title)
	r.children(b, n)
}

func (r *renderer) block(b *strings.Builder, n *delta.Node, what string) {
	switch n.Kind {
	case delta.Inserted:
		fmt.Fprintf(b, "\\marginnote{Inserted %s}", what)
	case delta.Deleted:
		fmt.Fprintf(b, "\\marginnote{Deleted %s}{\\small ", what)
		r.children(b, n)
		b.WriteString("}\n\n")
		return
	case delta.MoveSource:
		// Tombstone: only the label marks the old position (Figure 16's
		// "P1" marginal label).
		fmt.Fprintf(b, "\\marginnote{%s}\n\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "\\marginnote{Moved from %s}", r.labels[n])
	}
	r.children(b, n)
	b.WriteString("\n\n")
}

func (r *renderer) item(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Inserted:
		b.WriteString("\\item \\marginnote{Inserted item} ")
	case delta.Deleted:
		b.WriteString("\\item \\marginnote{Deleted item} {\\small ")
		r.children(b, n)
		b.WriteString("}\n")
		return
	case delta.MoveSource:
		fmt.Fprintf(b, "\\item \\marginnote{%s} [moved]\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "\\item \\marginnote{Moved from %s} ", r.labels[n])
	default:
		b.WriteString("\\item ")
	}
	r.children(b, n)
	b.WriteString("\n")
}

func (r *renderer) list(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Inserted:
		b.WriteString("\\marginnote{Inserted list}")
	case delta.Deleted:
		b.WriteString("\\marginnote{Deleted list}")
	case delta.MoveSource:
		fmt.Fprintf(b, "\\marginnote{%s}\n\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "\\marginnote{Moved from %s}", r.labels[n])
	}
	b.WriteString("\\begin{itemize}\n")
	r.children(b, n)
	b.WriteString("\\end{itemize}\n\n")
}

func (r *renderer) sentence(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Identity:
		b.WriteString(n.Value)
	case delta.Inserted:
		fmt.Fprintf(b, "\\textbf{%s}", n.Value)
	case delta.Deleted:
		fmt.Fprintf(b, "{\\small %s}", n.Value)
	case delta.Updated:
		fmt.Fprintf(b, "\\textit{%s}", n.Value)
	case delta.MoveSource:
		// Old position: small font, labelled (Figure 16: "S2:[...]").
		fmt.Fprintf(b, "{\\small %s:[%s]}", r.labels[n], n.Value)
	case delta.MoveDest:
		text := n.Value
		if n.OldValue != "" {
			// Moved and updated simultaneously: italic per Table 2.
			text = fmt.Sprintf("\\textit{%s}", text)
		}
		fmt.Fprintf(b, "[%s]\\footnote{Moved from %s}", text, r.labels[n])
	}
	b.WriteString("\n")
}

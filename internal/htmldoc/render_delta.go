package htmldoc

import (
	"fmt"
	"strings"

	"ladiff/internal/compare"
	"ladiff/internal/delta"
	"ladiff/internal/gen"
)

// RenderDelta renders a delta tree as an HTML document with the changes
// marked — the HTML counterpart of the LaTeX Table 2 conventions, and the
// concrete form of the paper's plan to "incorporate the diff program in a
// web browser" (§9):
//
//	inserted sentences   <ins>…</ins>
//	deleted sentences    <del>…</del>
//	updated sentences    <em class="upd" title="old value">…</em>
//	moved sentences      <del class="mov" id="srcN">…</del> at the old
//	                     position; <span class="mov">…<sup><a
//	                     href="#srcN">moved</a></sup></span> at the new
//	inserted/deleted/moved blocks get a class and a data-change attribute;
//	section headings get an [ins]/[del]/[upd]/[mov] prefix.
//
// A small embedded stylesheet makes the output viewable as-is.
func RenderDelta(dt *delta.Tree) string {
	r := &deltaRenderer{labels: map[*delta.Node]string{}}
	r.assignRefs(dt.Root)
	var b strings.Builder
	b.WriteString("<html><head><style>\n")
	b.WriteString("ins{background:#d4f7d4;text-decoration:none} del{background:#f7d4d4} ")
	b.WriteString("em.upd{background:#fdf3c7} .mov{background:#d8e6fb} ")
	b.WriteString(".block-change{border-left:3px solid #888;padding-left:6px;margin:4px 0}\n")
	b.WriteString("</style></head><body>\n")
	r.node(&b, dt.Root)
	b.WriteString("</body></html>\n")
	return b.String()
}

type deltaRenderer struct {
	labels map[*delta.Node]string
	refCt  int
}

func (r *deltaRenderer) assignRefs(n *delta.Node) {
	if n == nil {
		return
	}
	if n.Kind == delta.MoveSource && n.Dest() != nil {
		if _, done := r.labels[n]; !done {
			r.refCt++
			id := fmt.Sprintf("mov%d", r.refCt)
			r.labels[n] = id
			r.labels[n.Dest()] = id
		}
	}
	for _, c := range n.Children {
		r.assignRefs(c)
	}
}

func (r *deltaRenderer) node(b *strings.Builder, n *delta.Node) {
	switch n.Label {
	case gen.LabelDocument, "delta-root":
		r.children(b, n)
	case gen.LabelSection, LabelSubsection:
		r.heading(b, n)
	case gen.LabelParagraph:
		r.paragraph(b, n)
	case gen.LabelList:
		r.list(b, n)
	case gen.LabelItem:
		r.item(b, n)
	case gen.LabelSentence:
		r.sentence(b, n)
	default:
		if n.Value != "" {
			b.WriteString(escape(n.Value))
			b.WriteByte('\n')
		}
		r.children(b, n)
	}
}

func (r *deltaRenderer) children(b *strings.Builder, n *delta.Node) {
	for _, c := range n.Children {
		r.node(b, c)
	}
}

func (r *deltaRenderer) heading(b *strings.Builder, n *delta.Node) {
	tag := "h1"
	if n.Label == LabelSubsection {
		tag = "h2"
	}
	prefix := ""
	switch n.Kind {
	case delta.Inserted:
		prefix = "[ins] "
	case delta.Deleted:
		prefix = "[del] "
	case delta.Updated:
		prefix = "[upd] "
	case delta.MoveDest:
		prefix = "[mov] "
	case delta.MoveSource:
		fmt.Fprintf(b, "<%s class=\"mov\" id=%q>[moved away]</%s>\n", tag, r.labels[n], tag)
		return
	}
	fmt.Fprintf(b, "<%s>%s%s</%s>\n", tag, prefix, escape(n.Value), tag)
	r.children(b, n)
}

func (r *deltaRenderer) paragraph(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Inserted:
		b.WriteString("<p class=\"block-change\" data-change=\"inserted\">")
	case delta.Deleted:
		b.WriteString("<p class=\"block-change\" data-change=\"deleted\"><del>")
		r.children(b, n)
		b.WriteString("</del></p>\n")
		return
	case delta.MoveSource:
		fmt.Fprintf(b, "<p class=\"mov\" id=%q data-change=\"moved-away\"></p>\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "<p class=\"block-change mov\" data-change=\"moved-here\" data-from=%q>", r.labels[n])
	default:
		b.WriteString("<p>")
	}
	r.children(b, n)
	b.WriteString("</p>\n")
}

func (r *deltaRenderer) list(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Inserted:
		b.WriteString("<ul class=\"block-change\" data-change=\"inserted\">\n")
	case delta.Deleted:
		b.WriteString("<ul class=\"block-change\" data-change=\"deleted\">\n")
	case delta.MoveSource:
		fmt.Fprintf(b, "<ul class=\"mov\" id=%q data-change=\"moved-away\"></ul>\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "<ul class=\"block-change mov\" data-change=\"moved-here\" data-from=%q>\n", r.labels[n])
	default:
		b.WriteString("<ul>\n")
	}
	r.children(b, n)
	b.WriteString("</ul>\n")
}

func (r *deltaRenderer) item(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Inserted:
		b.WriteString("<li class=\"block-change\" data-change=\"inserted\">")
	case delta.Deleted:
		b.WriteString("<li class=\"block-change\" data-change=\"deleted\"><del>")
		r.children(b, n)
		b.WriteString("</del></li>\n")
		return
	case delta.MoveSource:
		fmt.Fprintf(b, "<li class=\"mov\" id=%q data-change=\"moved-away\"></li>\n", r.labels[n])
		return
	case delta.MoveDest:
		fmt.Fprintf(b, "<li class=\"block-change mov\" data-change=\"moved-here\" data-from=%q>", r.labels[n])
	default:
		b.WriteString("<li>")
	}
	r.children(b, n)
	b.WriteString("</li>\n")
}

// wordMarkup renders the new value with word-level <del>/<ins> markers
// for the parts that changed — finer-grained than Table 2's whole-
// sentence italics, using the same word-LCS the comparer runs on (§7).
func wordMarkup(oldValue, newValue string) string {
	var b strings.Builder
	first := true
	for _, op := range compare.WordDiff(oldValue, newValue) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		switch op.Kind {
		case compare.WordEqual:
			b.WriteString(escape(op.Word))
		case compare.WordDelete:
			b.WriteString("<del>" + escape(op.Word) + "</del>")
		case compare.WordInsert:
			b.WriteString("<ins>" + escape(op.Word) + "</ins>")
		}
	}
	return b.String()
}

func (r *deltaRenderer) sentence(b *strings.Builder, n *delta.Node) {
	switch n.Kind {
	case delta.Identity:
		b.WriteString(escape(n.Value))
	case delta.Inserted:
		fmt.Fprintf(b, "<ins>%s</ins>", escape(n.Value))
	case delta.Deleted:
		fmt.Fprintf(b, "<del>%s</del>", escape(n.Value))
	case delta.Updated:
		fmt.Fprintf(b, "<em class=\"upd\" title=\"%s\">%s</em>", attrEscaper.Replace(n.OldValue), wordMarkup(n.OldValue, n.Value))
	case delta.MoveSource:
		fmt.Fprintf(b, "<del class=\"mov\" id=%q>%s</del>", r.labels[n], escape(n.Value))
	case delta.MoveDest:
		text := escape(n.Value)
		if n.OldValue != "" {
			text = fmt.Sprintf("<em class=\"upd\" title=\"%s\">%s</em>", attrEscaper.Replace(n.OldValue), text)
		}
		fmt.Fprintf(b, "<span class=\"mov\">%s<sup><a href=\"#%s\">moved</a></sup></span>", text, r.labels[n])
	}
	b.WriteByte('\n')
}

package latex

import (
	"fmt"
	"strings"
	"testing"
)

// allocsDoc is a fixed document: 2 sections of 4 paragraphs, each of 4
// lines whose sentences end mid-line and run over line breaks, and a
// list of 2 items.
func allocsDoc() string {
	var b strings.Builder
	b.WriteString("\\begin{document}\n")
	for s := 0; s < 2; s++ {
		fmt.Fprintf(&b, "\\section{Section %d}\n\n", s)
		for p := 0; p < 4; p++ {
			fmt.Fprintf(&b, "Paragraph %d of section %d opens here. It has a sentence that\n", p, s)
			b.WriteString("runs over the line break, and a  gap of two spaces. Then\n")
			b.WriteString("one more line, e.g. with an abbreviation. % and a comment\n")
			b.WriteString("The last line! Does it end? It does.\n\n")
		}
	}
	b.WriteString("\\begin{itemize}\n\\item First item. It holds\ntwo sentences.\n\\item Second item! Two here too?\n\\end{itemize}\n")
	b.WriteString("\\end{document}\n")
	return b.String()
}

var parseSink any

// TestParseAllocs bounds a parse's allocations at one per node, one more
// per sentence (its own string) and 36 for the rest: the containers'
// child lists, the node table's growth and the parser's buffers (34 at
// the time of writing). A paragraph costs no joined text and no sentence
// slice, and its child list grows once.
func TestParseAllocs(t *testing.T) {
	src := allocsDoc()
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes, sentences := doc.Len(), len(doc.Chain(LabelSentence))
	allocs := testing.AllocsPerRun(20, func() { parseSink, _ = Parse(src) })
	if limit := nodes + sentences + 36; allocs > float64(limit) {
		t.Errorf("Parse: %v allocations for %d nodes and %d sentences, want at most %d", allocs, nodes, sentences, limit)
	}
}

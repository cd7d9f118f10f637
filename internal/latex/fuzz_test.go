package latex_test

import (
	"strings"
	"testing"

	"ladiff/internal/latex"
	"ladiff/internal/tree"
)

// FuzzParse feeds arbitrary input to the LaTeX parser: it must never
// panic, and whenever it accepts the input, the resulting tree must be
// structurally valid and survive a render/re-parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"plain prose without any commands at all.",
		"\\section{One}\nText here. More text!\n\n\\subsection{Two}\nDeep.",
		"\\begin{document}\n\\section{S}\nBody.\n\\end{document}",
		"\\begin{itemize}\n\\item a.\n\\item b.\n\\end{itemize}",
		"\\begin{itemize}\n\\item outer.\n\\begin{enumerate}\n\\item inner.\n\\end{enumerate}\n\\end{itemize}",
		"% only a comment",
		"\\section{unbalanced",
		"\\item stray",
		"\\begin{document} no end",
		"\\section{a}\n\\begin{weird}\ncontent.\n\\end{weird}",
		"\\section*{starred}\ntext.",
		"\\item[desc] described.",
		"100\\% escaped % comment",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := latex.Parse(src)
		if err != nil {
			return
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("accepted tree is invalid: %v\ninput: %q", err, src)
		}
		// RenderPlain emits values verbatim, so the round trip is only
		// guaranteed when the content carries no raw LaTeX syntax of its
		// own (\, %, {, }) — text like "0\end{document}" legitimately
		// changes meaning when re-embedded. Skip those inputs.
		clean := true
		doc.Walk(func(n *tree.Node) bool {
			if strings.ContainsAny(n.Value(), `\%{}`) {
				clean = false
				return false
			}
			return true
		})
		if !clean {
			return
		}
		rendered := latex.RenderPlain(doc)
		back, err := latex.Parse(rendered)
		if err != nil {
			t.Fatalf("rendered output does not re-parse: %v\ninput: %q\nrendered: %q", err, src, rendered)
		}
		if !tree.Isomorphic(doc, back) {
			t.Fatalf("render round trip not isomorphic\ninput: %q", src)
		}
	})
}

package latex_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/latex"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

func TestParseBasicDocument(t *testing.T) {
	src := `\documentclass{article}
\begin{document}
\section{Intro}
First sentence here. Second sentence!

A new paragraph? Yes.

\section{Body}
\subsection{Details}
Deep content lives here.
\end{document}`
	doc, err := latex.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	root := doc.Root()
	if root.Label() != latex.LabelDocument || root.NumChildren() != 2 {
		t.Fatalf("root = %v with %d children", root, root.NumChildren())
	}
	intro := root.Child(1)
	if intro.Label() != latex.LabelSection || intro.Value() != "Intro" {
		t.Fatalf("section = %v", intro)
	}
	if intro.NumChildren() != 2 {
		t.Fatalf("Intro has %d paragraphs, want 2:\n%v", intro.NumChildren(), doc)
	}
	p1 := intro.Child(1)
	if p1.NumChildren() != 2 || p1.Child(2).Value() != "Second sentence!" {
		t.Fatalf("paragraph 1 = %v", p1.Children())
	}
	body := root.Child(2)
	sub := body.Child(1)
	if sub.Label() != latex.LabelSubsection || sub.Value() != "Details" {
		t.Fatalf("subsection = %v", sub)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseLists(t *testing.T) {
	src := `\section{L}
Intro text.

\begin{itemize}
\item First item sentence. Another one.
\item Second item.
\end{itemize}

\begin{enumerate}
\item Numbered thing.
\end{enumerate}`
	doc, err := latex.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lists := doc.Chain(latex.LabelList)
	if len(lists) != 2 {
		t.Fatalf("found %d lists, want 2 (itemize + enumerate merged to one label)\n%v", len(lists), doc)
	}
	items := doc.Chain(latex.LabelItem)
	if len(items) != 3 {
		t.Fatalf("found %d items, want 3", len(items))
	}
	if items[0].NumChildren() != 2 {
		t.Fatalf("first item has %d sentences, want 2", items[0].NumChildren())
	}
	// Merged labels keep the schema acyclic.
	if err := match.CheckAcyclicLabels(doc); err != nil {
		t.Fatalf("schema not acyclic: %v", err)
	}
}

func TestParseNestedListsFlattened(t *testing.T) {
	src := `\section{L}
\begin{itemize}
\item Outer one.
\begin{enumerate}
\item Inner one.
\end{enumerate}
\item Outer two.
\end{itemize}`
	doc, err := latex.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if lists := doc.Chain(latex.LabelList); len(lists) != 1 {
		t.Fatalf("nested lists should flatten to 1, got %d\n%v", len(lists), doc)
	}
	if err := match.CheckAcyclicLabels(doc); err != nil {
		t.Fatalf("flattened schema should be acyclic: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	// A % is escaped only after an odd run of backslashes: \\% is the
	// line break \\ followed by a comment, \\\% an escaped % after it.
	src := `\section{S}
Kept text. % dropped comment
100\% escaped stays.

First line ends here.\\% a comment. Secret.
Escaped \\\% percent stays.`
	doc, err := latex.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var all []string
	for _, s := range doc.Chain(latex.LabelSentence) {
		all = append(all, s.Value())
	}
	want := []string{
		"Kept text.",
		`100\% escaped stays.`,
		`First line ends here.\\ Escaped \\\% percent stays.`,
	}
	if strings.Join(all, " | ") != strings.Join(want, " | ") {
		t.Fatalf("sentences %q, want %q", all, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"\\begin{document}\nno end",
		"\\section no braces",
		"\\section{unbalanced",
		"\\item outside list",
	}
	for _, src := range bad {
		if _, err := latex.Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestSplitSentences(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"One. Two. Three.", 3},
		{"No terminator at all", 1},
		{"Question? Exclamation! Period.", 3},
		{"Abbreviations e.g. this stay together.", 1},
		{"(Parenthesized end.) Next.", 2},
		{"", 0},
	}
	for _, c := range cases {
		got := latex.AppendSentences(nil, []string{c.in})
		if len(got) != c.want {
			t.Errorf("AppendSentences(%q) = %d sentences %v, want %d", c.in, len(got), got, c.want)
		}
	}
}

func TestRenderPlainRoundTrip(t *testing.T) {
	src := `\section{Alpha}
One sentence here. Two sentences here.

Second paragraph content.

\begin{itemize}
\item An item sentence.
\end{itemize}

\subsection{Beta}
Deeper prose.`
	doc, err := latex.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	back, err := latex.Parse(latex.RenderPlain(doc))
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if !tree.Isomorphic(doc, back) {
		t.Fatalf("round trip broke isomorphism:\n%v\nvs\n%v", doc, back)
	}
}

func loadAppendixA(t *testing.T) (*tree.Tree, *tree.Tree) {
	t.Helper()
	oldSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "texbook_old.tex"))
	if err != nil {
		t.Fatalf("read old: %v", err)
	}
	newSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "texbook_new.tex"))
	if err != nil {
		t.Fatalf("read new: %v", err)
	}
	oldT, err := latex.Parse(string(oldSrc))
	if err != nil {
		t.Fatalf("parse old: %v", err)
	}
	newT, err := latex.Parse(string(newSrc))
	if err != nil {
		t.Fatalf("parse new: %v", err)
	}
	return oldT, newT
}

// TestAppendixASampleRun reproduces the paper's Appendix A demonstration
// end to end: parse the TeXbook excerpt versions (Figures 14–15), diff,
// build the delta tree, and check that the changes the paper highlights
// in Figure 16 are detected.
func TestAppendixASampleRun(t *testing.T) {
	oldT, newT := loadAppendixA(t)
	res, err := core.Diff(oldT, newT, core.Options{PostProcess: true})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	dt, err := delta.Build(res)
	if err != nil {
		t.Fatalf("delta.Build: %v", err)
	}
	if err := dt.Validate(res); err != nil {
		t.Fatalf("delta tree invalid: %v", err)
	}
	s := dt.Stats()
	// Figure 16's headline changes: the TeX-predecessor sentence moves
	// from the conclusion to the introduction (and is updated), the
	// exercises sentence moves within its section (and is updated), a
	// whole section ("The details") is inserted, the "dull reading"
	// sentence is updated, the "later chapters" sentence is deleted, and
	// a "This feature may seem strange" sentence is inserted.
	if s.MovePairs < 1 {
		t.Fatalf("no moves detected; stats = %+v\n%v", s, dt)
	}
	if s.Inserted == 0 {
		t.Fatalf("no insertions detected; stats = %+v", s)
	}
	if s.Updated == 0 {
		t.Fatalf("no updates detected; stats = %+v", s)
	}
	out := latex.Render(dt)
	// The moved predecessor sentence must appear with a move label at
	// one position and a footnote reference at the other.
	if !strings.Contains(out, "Moved from S") {
		t.Fatalf("rendered output lacks move footnotes:\n%s", out)
	}
	if !strings.Contains(out, "\\textbf{") {
		t.Fatalf("rendered output lacks bold insertions")
	}
	if !strings.Contains(out, "\\textit{") {
		t.Fatalf("rendered output lacks italic updates")
	}
	if !strings.Contains(out, "{\\small") {
		t.Fatalf("rendered output lacks small-font deletions/tombstones")
	}
	// The output must still be parseable LaTeX structure-wise.
	if _, err := latex.Parse(out); err != nil {
		t.Fatalf("marked-up output does not re-parse: %v", err)
	}
}

// TestTable2Conventions checks each textual-unit × operation mark-up rule
// on minimal constructed documents.
func TestTable2Conventions(t *testing.T) {
	diffDocs := func(oldSrc, newSrc string) string {
		t.Helper()
		oldT, err := latex.Parse(oldSrc)
		if err != nil {
			t.Fatalf("parse old: %v", err)
		}
		newT, err := latex.Parse(newSrc)
		if err != nil {
			t.Fatalf("parse new: %v", err)
		}
		res, err := core.Diff(oldT, newT, core.Options{})
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		dt, err := delta.Build(res)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return latex.Render(dt)
	}

	base := `\section{S}
Stable sentence number one stays here. Stable sentence number two stays here. Stable sentence number three stays here.`

	t.Run("sentence insert is bold", func(t *testing.T) {
		out := diffDocs(base, `\section{S}
Stable sentence number one stays here. A brand new inserted sentence! Stable sentence number two stays here. Stable sentence number three stays here.`)
		if !strings.Contains(out, "\\textbf{A brand new inserted sentence!}") {
			t.Fatalf("missing bold insert:\n%s", out)
		}
	})

	t.Run("sentence delete is small", func(t *testing.T) {
		out := diffDocs(`\section{S}
Stable sentence number one stays here. Doomed sentence completely vanishes today. Stable sentence number two stays here. Stable sentence number three stays here.`, base)
		if !strings.Contains(out, "{\\small Doomed sentence completely vanishes today.}") {
			t.Fatalf("missing small delete:\n%s", out)
		}
	})

	t.Run("sentence update is italic", func(t *testing.T) {
		out := diffDocs(base, `\section{S}
Stable sentence number one stays here. Stable sentence number two stays there. Stable sentence number three stays here.`)
		if !strings.Contains(out, "\\textit{Stable sentence number two stays there.}") {
			t.Fatalf("missing italic update:\n%s", out)
		}
	})

	t.Run("sentence move gets label and footnote", func(t *testing.T) {
		// The sentences must be mutually dissimilar: near-duplicates let
		// the matcher legitimately prefer two cheap updates over a move.
		moveBase := `\section{S}
The quick brown fox jumps over everything. Entirely different words appear in this one. Final thoughts conclude the whole paragraph.`
		out := diffDocs(moveBase, `\section{S}
Entirely different words appear in this one. The quick brown fox jumps over everything. Final thoughts conclude the whole paragraph.`)
		if !strings.Contains(out, "S1:[") || !strings.Contains(out, "\\footnote{Moved from S1}") {
			t.Fatalf("missing move label/footnote:\n%s", out)
		}
	})

	t.Run("section insert is annotated in heading", func(t *testing.T) {
		out := diffDocs(base, base+`
\section{Brand New}
Completely fresh material appears here now.`)
		if !strings.Contains(out, "\\section{(ins) Brand New}") {
			t.Fatalf("missing (ins) heading:\n%s", out)
		}
	})

	t.Run("section update is annotated in heading", func(t *testing.T) {
		out := diffDocs(base, `\section{Renamed}
Stable sentence number one stays here. Stable sentence number two stays here. Stable sentence number three stays here.`)
		if !strings.Contains(out, "\\section{(upd) Renamed}") {
			t.Fatalf("missing (upd) heading:\n%s", out)
		}
	})

	t.Run("paragraph insert gets marginal note", func(t *testing.T) {
		out := diffDocs(base, base+`

An entirely new paragraph with its own words. It has two sentences even.`)
		if !strings.Contains(out, "\\marginnote{Inserted paragraph}") {
			t.Fatalf("missing paragraph marginal note:\n%s", out)
		}
	})
}

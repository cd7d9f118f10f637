package textdoc_test

import (
	"errors"
	"strings"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/latex/latextest"
	"ladiff/internal/lderr"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// referenceParse is the parser textdoc.Parse replaced: it rewrites CRLF
// to LF, collapses each run of blank lines into one empty line, cuts the
// result at "\n\n", splits each block with the reference splitter and
// appends the sentences one AppendChild at a time.
func referenceParse(src string) *tree.Tree {
	var lines []string
	blank := true
	for _, line := range strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n") {
		if strings.TrimSpace(line) == "" {
			if !blank {
				lines = append(lines, "")
			}
			blank = true
			continue
		}
		blank = false
		lines = append(lines, line)
	}
	t := tree.NewWithRoot(gen.LabelDocument, "")
	for _, block := range strings.Split(strings.Join(lines, "\n"), "\n\n") {
		sentences := latextest.SplitSentences(block)
		if len(sentences) == 0 {
			continue
		}
		para := t.AppendChild(t.Root(), gen.LabelParagraph, "")
		for _, s := range sentences {
			t.AppendChild(para, gen.LabelSentence, s)
		}
	}
	return t
}

// FuzzParse feeds arbitrary input to the plain-text parser: it accepts
// everything, so it must never panic, always yield a valid tree equal,
// IDs included, to the reference parser's, and survive a render/re-parse
// round trip; the streaming limit guard must hold under the same inputs.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"One sentence.",
		"One. Two! Three?",
		"Para one.\n\nPara two.",
		"Line one\nline two of same para.",
		"\n\n\n",
		"Windows\r\nline endings.\r\n\r\nSecond para.",
		"no terminal punctuation",
		"e.g. an abbreviation. Next sentence.",
		"   leading and trailing   ",
		"unicode: héllo wörld. ¿Qué tal?",
		"a.b.c...",
		// A sentence spanning two lines, CRLF, a lone \r and
		// whitespace-only lines.
		"One sentence that\nspans two lines. Next.",
		"CRLF one.\r\nCRLF two\r\n\r\nNew para.\r\n",
		"Lone\rcarriage return.\r\rStill one block.",
		"First.\n \t \n\r\n\u3000\nSecond.\n   ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := textdoc.Parse(src)
		if err := doc.Validate(); err != nil {
			t.Fatalf("parsed tree invalid: %v\ninput: %q", err, src)
		}
		if got, want := doc.String(), referenceParse(src).String(); got != want {
			t.Fatalf("tree differs from the reference parser's\ninput: %q\ngot:\n%s\nwant:\n%s", src, got, want)
		}
		rendered := textdoc.Render(doc)
		back := textdoc.Parse(rendered)
		if !tree.Isomorphic(doc, back) {
			t.Fatalf("render round trip not isomorphic\ninput: %q\nrendered: %q", src, rendered)
		}
		lim, err := textdoc.ParseLimited(src, tree.Limits{MaxNodes: 4, MaxDepth: 3})
		if err != nil {
			if !errors.Is(err, lderr.ErrLimit) {
				t.Fatalf("limited parse failed without ErrLimit: %v\ninput: %q", err, src)
			}
			return
		}
		if lim.Len() > 4 {
			t.Fatalf("limited parse built %d nodes past MaxNodes=4\ninput: %q", lim.Len(), src)
		}
	})
}

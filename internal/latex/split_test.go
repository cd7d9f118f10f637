package latex

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ladiff/internal/latex/latextest"
	"ladiff/internal/tree"
)

// oracleStripComments is the strings.Split-based comment stripper
// stripComments replaced, with the escape rule corrected the same way: a
// % is escaped only after an odd run of backslashes.
func oracleStripComments(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		out := line
		for i := 0; i < len(out); i++ {
			if out[i] != '%' {
				continue
			}
			run := 0
			for j := i - 1; j >= 0 && out[j] == '\\'; j-- {
				run++
			}
			if run%2 == 0 {
				out = out[:i]
				break
			}
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String()
}

// oracleCases covers the whitespace strings.Fields splits on (U+0085,
// U+00A0, U+2003, \v, \f, \r, U+3000), runes it does not (U+200B,
// U+180E), invalid UTF-8, abbreviations in any case (including runes
// that lower-case to ASCII), closing punctuation and LaTeX sources with
// comments.
var oracleCases = []string{
	"",
	" \t\n ",
	"One. Two. Three.",
	"No terminator at all",
	"Question? Exclamation! Period.",
	"Abbreviations e.g. this stay together.",
	"(Parenthesized end.) Next.",
	`He said "Stop." Then left.`,
	"Quoted 'end.' and bracket [end.] and brace {end.} done.",
	"Dr. Smith met Mr. Jones. Fig. 3 shows Eq. 2, cf. Sec. 4.",
	"E.G. upper I.E. too. Etc. ends? Vs. this. MRS. Ms. mr.",
	"Not abbreviations: dre. fig3. e.g.x. Done...",
	"\u0130.e. dotted capital I. \u212a. kelvin. \u017fec. long s.",
	"nel\u0085split. nbsp\u00a0split. em\u2003space. ideo\u3000graphic.",
	"zero\u200bwidth stays. mongolian\u180evowel too.",
	"tab\there.\vvertical\fform feed.\r\nNext.",
	"multi  space   gaps.  Next\n\nparagraph.   ",
	"bad \xff utf8. \xe2\x80 cut rune. \xc0. end\xff",
	"\xe2\x80\x83lead and trail\xc2\x85",
	"... ?! !? .",
	"a.b.c. d!e f?g.",
	"\\section{S}\nFirst line ends here.\\\\% a comment. Secret.\nNext.",
	"100\\% kept. 50\\\\% cut\n\\\\\\% kept too. % gone",
	"% only a comment",
	"\\begin{itemize}\n\\item a. b.\n\\item[x] c?\n\\end{itemize}\ntail.",
	"\\section{A}  Rest after title.\n\\subsection{B}\n  indented   line.\n\n\nlast",
}

// splitText is AppendSentences on the one piece text.
func splitText(text string) []string { return AppendSentences(nil, []string{text}) }

// checkAgainstOracles fails when splitText disagrees with the
// reference splitter on text, when AppendSentences disagrees with it on
// text cut into pieces (at its lines, and every 3 bytes), or when the
// parser run with the new stripper and splitter builds a different tree
// from the one it builds with the reference versions.
func checkAgainstOracles(t *testing.T, text string) {
	t.Helper()
	got, want := splitText(text), latextest.SplitSentences(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitText(%q)\n got %q\nwant %q", text, got, want)
	}
	var chunks []string
	for i := 0; i < len(text); i += 3 {
		chunks = append(chunks, text[i:min(i+3, len(text))])
	}
	prefix := []string{"kept"}
	for _, pieces := range [][]string{strings.Split(text, "\n"), chunks} {
		want := latextest.AppendSentences(prefix[:1:1], pieces)
		if got := AppendSentences(prefix[:1:1], pieces); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendSentences(%q)\n got %q\nwant %q", pieces, got, want)
		}
		if got, want := AppendSentences(nil, pieces), latextest.AppendSentences(nil, pieces); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendSentences(nil, %q)\n got %q\nwant %q", pieces, got, want)
		}
	}
	doc, err := parse(text, tree.Limits{}, stripComments, AppendSentences)
	ref, refErr := parse(text, tree.Limits{}, oracleStripComments, latextest.AppendSentences)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("parse(%q): error %v, reference error %v", text, err, refErr)
	}
	if err == nil && doc.String() != ref.String() {
		t.Fatalf("parse(%q) tree\n%s\nreference tree\n%s", text, doc, ref)
	}
}

func TestSplitSentencesMatchesOracle(t *testing.T) {
	for _, text := range oracleCases {
		checkAgainstOracles(t, text)
	}
}

// FuzzSplitSentences checks the one-pass splitter, on whole text and on
// pieces, and the parser against the reference splitter and comment
// stripper on arbitrary text.
func FuzzSplitSentences(f *testing.F) {
	for _, s := range []string{"", "One. Two!", "e.g. kept", "a?b", "trailing"} {
		f.Add(s)
	}
	for _, s := range oracleCases {
		f.Add(s)
	}
	f.Fuzz(checkAgainstOracles)
}

var sentenceSink []string

// TestSplitSentencesAllocs pins the splitter's allocations: one string
// per sentence plus the result slice.
func TestSplitSentencesAllocs(t *testing.T) {
	for _, text := range []string{
		"One sentence here. Another one follows! And a third? Dr. Who stays.",
		"tabs\tand  double  spaces. and\nnew lines\u00a0too. trailing words",
		"no terminator at all",
		"",
	} {
		n := len(splitText(text))
		allocs := testing.AllocsPerRun(100, func() { sentenceSink = splitText(text) })
		if limit := n + 1; allocs > float64(limit) || n == 0 && allocs != 0 {
			t.Errorf("splitText(%q): %v allocations for %d sentences, want at most %d", text, allocs, n, limit)
		}
	}
}

// TestEndsSentence: EndsSentence(s) holds exactly when a word written
// after s starts a sentence of its own, and it allocates nothing.
func TestEndsSentence(t *testing.T) {
	for _, s := range []string{
		"One.", "Two words!", "Why?", `Quoted."`, "(Aside.)", "Tab.\t",
		"e.g.", "Dr.", "Apples, pears, etc.", "no end", "0", "Wide\u3000space.",
	} {
		want := len(splitText(s+" next")) > len(splitText(s))
		if got := EndsSentence(s); got != want {
			t.Errorf("EndsSentence(%q) = %v, want %v", s, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { EndsSentence(s) }); n != 0 {
			t.Errorf("EndsSentence(%q): %v allocations, want 0", s, n)
		}
	}
}

// byteRange is the address range of a string's bytes.
type byteRange struct{ lo, hi uintptr }

func rangeOf(s string) byteRange {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return byteRange{lo, lo + uintptr(len(s))}
}

func (r byteRange) overlaps(o byteRange) bool { return r.lo < o.hi && o.lo < r.hi }

// TestSentencesOwnTheirBytes checks that no parsed sentence shares bytes
// with the source text or with a sibling sentence. A sentence kept alive
// after its document (in a stored edit script, say) then retains only
// its own bytes, never the whole source or paragraph.
func TestSentencesOwnTheirBytes(t *testing.T) {
	src := strings.Join([]string{
		`\section{S}`,
		`One short sentence. Another  one`,
		`on two lines! A third?`,
		``,
		`\begin{itemize}`,
		`\item Item sentence. Second.`,
		`\end{itemize}`,
		`Alone.`,
		``,
		`Commented. % trailing comment`,
	}, "\n")
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sentences := doc.Chain(LabelSentence)
	if len(sentences) != 7 {
		t.Fatalf("parsed %d sentences, want 7:\n%s", len(sentences), doc)
	}
	seen := []byteRange{rangeOf(src)}
	for _, n := range sentences {
		r := rangeOf(n.Value())
		for _, o := range seen {
			if r.overlaps(o) {
				t.Fatalf("sentence %q shares bytes with the source or a sibling", n.Value())
			}
		}
		seen = append(seen, r)
	}
	for _, text := range []string{"Alone.", "One. Two! Three"} {
		own := rangeOf(text)
		for _, s := range splitText(text) {
			if rangeOf(s).overlaps(own) {
				t.Fatalf("splitText(%q) returned %q inside its input", text, s)
			}
		}
	}
}

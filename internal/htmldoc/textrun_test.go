package htmldoc

import (
	"slices"
	"strings"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/latex"
)

// textRunCases are paragraph bodies whose text runs split words, carry
// entities, or hold only whitespace. FuzzParse seeds them too.
var textRunCases = []string{
	"foo<b>bar</b> baz.",
	"Fish &amp; chips.&nbsp;Salt&nbsp;&amp;&nbsp;vinegar.",
	"Tabs\tand\nnew\r\nlines.<br>After the break.<br/>Last one",
	"Before. <i> \t\n </i>After.",
	"Words<b>joined</b>inside.  Two   spaces. <em> </em>Wide\u3000space.",
}

// TestTextRunsMatchWordReference: the parser buffers whole text runs and
// leaves whitespace to latex.AppendSentences. The sentences must equal those of
// a reference that first splits each decoded run into words with
// strings.Fields, then joins the words and splits the sentences.
func TestTextRunsMatchWordReference(t *testing.T) {
	for _, body := range textRunCases {
		doc, err := Parse("<p>" + body + "</p>")
		if err != nil {
			t.Fatalf("Parse(%q): %v", body, err)
		}
		var got []string
		for _, n := range doc.Chain(gen.LabelSentence) {
			got = append(got, n.Value())
		}
		var words []string
		for _, run := range textRuns(body) {
			words = append(words, strings.Fields(decodeEntities(run))...)
		}
		if want := latex.AppendSentences(nil, []string{strings.Join(words, " ")}); !slices.Equal(got, want) {
			t.Errorf("%q: sentences %q, reference %q", body, got, want)
		}
	}
}

// textRuns returns the text between the tags of src, which holds no
// comment and no unterminated tag.
func textRuns(src string) []string {
	var runs []string
	for {
		i := strings.IndexByte(src, '<')
		if i < 0 {
			return append(runs, src)
		}
		runs = append(runs, src[:i])
		src = src[i+strings.IndexByte(src[i:], '>')+1:]
	}
}

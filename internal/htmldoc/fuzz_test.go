package htmldoc_test

import (
	"testing"

	"ladiff/internal/htmldoc"
	"ladiff/internal/latex/latextest"
	"ladiff/internal/tree"
)

// FuzzParse feeds arbitrary input to the HTML parser: it must never
// panic, accepted inputs must yield valid trees that survive a
// render/re-parse round trip, and the tree, IDs included, must equal the
// one built with the reference splitter, which joins each paragraph's
// text runs and splits the joined text.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"bare text only.",
		"<h1>T</h1><p>One. Two.</p>",
		"<html><head><title>x</title></head><body><p>y.</p></body></html>",
		"<ul><li>a.</li><li>b.</li></ul>",
		"<ul><li>outer.<ol><li>inner.</li></ol></li></ul>",
		"<!-- comment --><p>after.</p>",
		"<p>entity &amp; more</p>",
		"<p>unterminated <",
		"<script>skip me</script><p>kept.</p>",
		"<h2>sub first</h2><p>body.</p>",
		"<div><p>nested.</p></div>",
		"<p attr=\"x\">attributed.</p>",
		"<br/><p>after break.</p>",
		"<script>ȺȺȺȺ</script><p>Hello there.</p>",
		// Text runs split by inline tags, entities and whitespace, as in
		// TestTextRunsMatchWordReference.
		"<p>foo<b>bar</b> baz.</p>",
		"<p>Fish &amp; chips.&nbsp;Salt&nbsp;&amp;&nbsp;vinegar.</p>",
		"<p>Tabs\tand\nnew\r\nlines.<br>After the break.<br/>Last one</p>",
		"<p>Before. <i> \t\n </i>After.</p>",
		// A sentence spanning two runs or two lines, CRLF, a lone \r and
		// whitespace-only lines.
		"<p>One sentence <b>spans</b> two runs. Next.</p>",
		"<p>A sentence on\ntwo lines.\nAnother one.</p>",
		"<p>Carriage\r\nreturn line feed.\r\n\r\nSame paragraph.</p>",
		"<p>Lone\rcarriage return.\rNext.</p>",
		"<ul><li>Item \n \t \n\u3000\n text.</li></ul>\n   \n<p> \n </p>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := htmldoc.Parse(src)
		ref, refErr := htmldoc.ParseWithSplitter(src, tree.Limits{}, latextest.AppendSentences)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("error %v, reference error %v\ninput: %q", err, refErr, src)
		}
		if err != nil {
			return
		}
		if got, want := doc.String(), ref.String(); got != want {
			t.Fatalf("tree differs from the reference splitter's\ninput: %q\ngot:\n%s\nwant:\n%s", src, got, want)
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("accepted tree invalid: %v\ninput: %q", err, src)
		}
		rendered := htmldoc.Render(doc)
		back, err := htmldoc.Parse(rendered)
		if err != nil {
			t.Fatalf("rendered output does not re-parse: %v\ninput: %q", err, src)
		}
		if !tree.Isomorphic(doc, back) {
			t.Fatalf("render round trip not isomorphic\ninput: %q\nfirst:\n%v\nsecond:\n%v", src, doc, back)
		}
	})
}

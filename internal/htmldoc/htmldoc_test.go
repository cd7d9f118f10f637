package htmldoc_test

import (
	"strings"
	"testing"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/gen"
	"ladiff/internal/htmldoc"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

const page = `<html>
<head><title>Ignored</title><style>p { color: red }</style></head>
<body>
<h1>Welcome</h1>
<p>First sentence of the page. Second sentence follows here.</p>
<h2>Details</h2>
<p>Some detail text with <b>inline</b> markup &amp; entities.</p>
<ul>
  <li>First bullet point content.</li>
  <li>Second bullet point content.</li>
</ul>
<!-- a comment that vanishes -->
</body>
</html>`

func TestParseStructure(t *testing.T) {
	doc, err := htmldoc.Parse(page)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	root := doc.Root()
	if root.NumChildren() != 1 {
		t.Fatalf("sections = %d, want 1\n%v", root.NumChildren(), doc)
	}
	sec := root.Child(1)
	if sec.Value() != "Welcome" {
		t.Fatalf("section title = %q", sec.Value())
	}
	subs := doc.Chain(htmldoc.LabelSubsection)
	if len(subs) != 1 || subs[0].Value() != "Details" {
		t.Fatalf("subsections = %v", subs)
	}
	items := doc.Chain(gen.LabelItem)
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2\n%v", len(items), doc)
	}
	var text []string
	for _, s := range doc.Chain(gen.LabelSentence) {
		text = append(text, s.Value())
	}
	joined := strings.Join(text, " | ")
	if !strings.Contains(joined, "inline markup & entities") {
		t.Fatalf("inline tags/entities mishandled: %q", joined)
	}
	if strings.Contains(joined, "Ignored") || strings.Contains(joined, "color") {
		t.Fatalf("head/style content leaked: %q", joined)
	}
	if strings.Contains(joined, "comment") {
		t.Fatalf("comment leaked: %q", joined)
	}
	if err := match.CheckAcyclicLabels(doc); err != nil {
		t.Fatalf("schema not acyclic: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"<p>unterminated <",
		"<!-- never closed",
		"<script>forever",
	} {
		if _, err := htmldoc.Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestParseSkipContent covers the close-tag search of <script>, <style>,
// <head> and <title>: offsets must hold when a rune changes byte length
// under case mapping (Ⱥ is 2 bytes, ⱥ 3), and the search must stay
// linear in the document.
func TestParseSkipContent(t *testing.T) {
	for _, src := range []string{
		"<script>ȺȺȺȺ</script><p>Hello there.</p>",
		"<script>ȺȺȺȺȺȺȺȺȺȺ</script><p>Hello there.</p>",
	} {
		doc, err := htmldoc.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		var got []string
		for _, leaf := range doc.Leaves() {
			got = append(got, leaf.Value())
		}
		if len(got) != 1 || got[0] != "Hello there." {
			t.Errorf("Parse(%q) leaves = %q, want [\"Hello there.\"]", src, got)
		}
	}

	src := strings.Repeat("<SCRIPT>X</SCRIPT>", 16000) + "<p>Kept.</p>"
	start := time.Now()
	doc, err := htmldoc.Parse(src)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Parse of 16000 script elements took %v, want under 2s", elapsed)
	}
	if err != nil {
		t.Fatalf("Parse of 16000 script elements: %v", err)
	}
	if n := len(doc.Chain(gen.LabelSentence)); n != 1 {
		t.Errorf("sentences = %d, want 1", n)
	}
}

func TestRoundTrip(t *testing.T) {
	doc, err := htmldoc.Parse(page)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	back, err := htmldoc.Parse(htmldoc.Render(doc))
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if !tree.Isomorphic(doc, back) {
		t.Fatalf("round trip broke isomorphism:\n%v\nvs\n%v", doc, back)
	}
}

// TestWebPageChangeMonitoring is the paper's §1 scenario: a page changes
// between visits and the differences are detected and classified.
func TestWebPageChangeMonitoring(t *testing.T) {
	oldPage := `<h1>News</h1>
<p>Quarterly results exceeded all expectations today. Analysts were surprised by the margin growth. The board will meet again next quarter.</p>
<p>Unrelated second story paragraph stays put here.</p>`
	newPage := `<h1>News</h1>
<p>Quarterly results exceeded all expectations today. The board will meet again next quarter. Analysts were astonished by the margin growth.</p>
<p>Unrelated second story paragraph stays put here.</p>
<p>A breaking third story appears in this update.</p>`
	oldT, err := htmldoc.Parse(oldPage)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := htmldoc.Parse(newPage)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diff(oldT, newT, core.Options{})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	dt, err := delta.Build(res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := dt.Validate(res); err != nil {
		t.Fatalf("delta invalid: %v", err)
	}
	s := dt.Stats()
	// The analysts sentence moved (and was updated); a new paragraph was
	// inserted.
	if s.MovePairs == 0 {
		t.Fatalf("expected a move; stats = %+v\n%v", s, dt)
	}
	if s.Inserted == 0 {
		t.Fatalf("expected insertions; stats = %+v", s)
	}
}

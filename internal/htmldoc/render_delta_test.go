package htmldoc_test

import (
	"strings"
	"testing"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/htmldoc"
)

func renderDiff(t *testing.T, oldSrc, newSrc string) string {
	t.Helper()
	oldT, err := htmldoc.Parse(oldSrc)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := htmldoc.Parse(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diff(oldT, newT, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := delta.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Validate(res); err != nil {
		t.Fatalf("delta invalid: %v", err)
	}
	return htmldoc.RenderDelta(dt)
}

const htmlBase = `<h1>News</h1>
<p>Stable opening sentence stays intact. Second stable sentence also remains. Third stable sentence anchors the paragraph.</p>`

func TestRenderDeltaInsertDelete(t *testing.T) {
	out := renderDiff(t, `<h1>News</h1>
<p>Stable opening sentence stays intact. Doomed filler sentence vanishes completely. Second stable sentence also remains. Third stable sentence anchors the paragraph.</p>`,
		`<h1>News</h1>
<p>Stable opening sentence stays intact. Second stable sentence also remains. Freshly minted addition appears right here. Third stable sentence anchors the paragraph.</p>`)
	if !strings.Contains(out, "<ins>Freshly minted addition appears right here.</ins>") {
		t.Fatalf("missing <ins>:\n%s", out)
	}
	if !strings.Contains(out, "<del>Doomed filler sentence vanishes completely.</del>") {
		t.Fatalf("missing <del>:\n%s", out)
	}
}

func TestRenderDeltaUpdate(t *testing.T) {
	out := renderDiff(t, htmlBase, `<h1>News</h1>
<p>Stable opening sentence stays intact. Second stable sentence still remains. Third stable sentence anchors the paragraph.</p>`)
	// Updated sentences carry word-level markers: the changed word is
	// wrapped, the rest left plain.
	if !strings.Contains(out, `<em class="upd"`) ||
		!strings.Contains(out, "<del>also</del>") ||
		!strings.Contains(out, "<ins>still</ins>") {
		t.Fatalf("missing word-level update markup:\n%s", out)
	}
	if !strings.Contains(out, `title="Second stable sentence also remains."`) {
		t.Fatalf("missing old value in title:\n%s", out)
	}
}

func TestRenderDeltaMoveAnchors(t *testing.T) {
	out := renderDiff(t, `<h1>News</h1>
<p>The quick brown fox jumps over fences. Entirely unrelated second sentence sits here. Final thoughts close the paragraph neatly.</p>`,
		`<h1>News</h1>
<p>Entirely unrelated second sentence sits here. Final thoughts close the paragraph neatly. The quick brown fox jumps over fences.</p>`)
	if !strings.Contains(out, `id="mov1"`) || !strings.Contains(out, `href="#mov1"`) {
		t.Fatalf("move anchors missing:\n%s", out)
	}
}

func TestRenderDeltaHeadingAnnotations(t *testing.T) {
	out := renderDiff(t, htmlBase, htmlBase+`
<h1>Extra</h1>
<p>A whole new section with fresh content arrives.</p>`)
	if !strings.Contains(out, "<h1>[ins] Extra</h1>") {
		t.Fatalf("missing [ins] heading:\n%s", out)
	}
}

func TestRenderDeltaIsValidHTMLSubset(t *testing.T) {
	out := renderDiff(t, htmlBase, `<h1>News</h1>
<p>Stable opening sentence stays intact. Second stable sentence also remains. Third stable sentence anchors the paragraph. Bonus sentence joins at the end.</p>`)
	// Our own parser must be able to re-read the rendered document (tags
	// it does not know are stripped, content survives).
	back, err := htmldoc.Parse(out)
	if err != nil {
		t.Fatalf("rendered delta does not re-parse: %v\n%s", err, out)
	}
	joined := strings.Join(func() []string {
		var vals []string
		for _, s := range back.Leaves() {
			vals = append(vals, s.Value())
		}
		return vals
	}(), " ")
	if !strings.Contains(joined, "Bonus sentence joins at the end.") {
		t.Fatalf("content lost in rendering: %q", joined)
	}
}

// TestRenderDeltaEscapesTitles checks that an old value holding HTML
// metacharacters stays inside its title attribute, for an updated
// sentence and for a moved-and-updated one.
func TestRenderDeltaEscapesTitles(t *testing.T) {
	out := renderDiff(t, `<h1>News</h1>
<p>Quarterly results exceeded all expectations today. Analysts said &quot;wow&quot; &lt;loudly&gt; &amp; were surprised by the margin growth. The board will meet again next quarter.</p>
<p>He said &quot;stop&quot; &lt;now&gt; &amp; left today. Unrelated second story paragraph stays put here.</p>`,
		`<h1>News</h1>
<p>Quarterly results exceeded all expectations today. The board will meet again next quarter. Analysts said &quot;wow&quot; &lt;loudly&gt; &amp; were astonished by the margin growth.</p>
<p>He said &quot;stop&quot; &lt;now&gt; &amp; left early today. Unrelated second story paragraph stays put here.</p>`)
	for _, want := range []string{
		`<em class="upd" title="He said &quot;stop&quot; &lt;now&gt; &amp; left today.">`,
		`<span class="mov"><em class="upd" title="Analysts said &quot;wow&quot; &lt;loudly&gt; &amp; were surprised by the margin growth.">`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing escaped title %s in:\n%s", want, out)
		}
	}
	back, err := htmldoc.Parse(out)
	if err != nil {
		t.Fatalf("rendered delta does not re-parse: %v\n%s", err, out)
	}
	for _, leaf := range back.Leaves() {
		if strings.Contains(leaf.Value(), `">`) {
			t.Errorf("attribute text leaked into content: %q", leaf.Value())
		}
	}
}

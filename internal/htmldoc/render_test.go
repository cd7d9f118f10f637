package htmldoc

import (
	"strings"
	"sync"
	"testing"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/gen"
	"ladiff/internal/tree"
)

var renderSink string

// sectionsPage returns the gen.Sections(4) page (107 nodes) and its delta
// against the class's perturbation at seed 7.
func sectionsPage(t *testing.T) (*tree.Tree, *delta.Tree) {
	t.Helper()
	c := gen.Sections(4)
	doc := gen.Document(c.Doc)
	p, err := gen.Perturb(doc, c.Pert(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diff(doc, p.New, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := delta.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return doc, dt
}

func TestEscapeAllocs(t *testing.T) {
	text := "Plain prose with nothing to escape, not even an apostrophe."
	if n := testing.AllocsPerRun(100, func() { renderSink = escape(text) }); n != 0 {
		t.Errorf("escape of plain text: %v allocations, want 0", n)
	}
}

// TestDecodeEntitiesAllocs: a text run without '&' comes back as it
// is, without allocating; one with entities still decodes.
func TestDecodeEntitiesAllocs(t *testing.T) {
	text := "Plain prose with no entity in it, not even an ampersand."
	if n := testing.AllocsPerRun(100, func() { renderSink = decodeEntities(text) }); n != 0 {
		t.Errorf("decodeEntities of plain text: %v allocations, want 0", n)
	}
	if got := decodeEntities("Fish &amp; chips&nbsp;&lt;3"); got != "Fish & chips <3" {
		t.Errorf("decodeEntities = %q", got)
	}
}

// TestRenderItemSentencesApart: an item can hold a sentence that does
// not end one, its text cut off by a nested list or paragraph. Render
// keeps it apart from the next sentence, so the page re-parses to the
// same tree; items whose sentences all end one render space-joined.
func TestRenderItemSentencesApart(t *testing.T) {
	for _, c := range []struct{ src, item string }{
		{"<li>0<ol >0", "<li>0<p>0</li>"},
		{"<ul><li>a<p>b</p></li></ul>", "<li>a<p>b</li>"},
		{"<ul><li>Apples, pears, etc.<p>Then plums.</p></li></ul>", "<li>Apples, pears, etc.<p>Then plums.</li>"},
		{"<ul><li>One. Two!<ol><li>Three?</li></ol></li></ul>", "<li>One. Two!</li>"},
		{"<ul><li>First. <b>Second!</b> Third? Fourth.</li></ul>", "<li>First. Second! Third? Fourth.</li>"},
	} {
		doc, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		page := Render(doc)
		if !strings.Contains(page, c.item) {
			t.Errorf("Render(%q) = %q, want it to contain %q", c.src, page, c.item)
		}
		back, err := Parse(page)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", page, err)
		}
		if !tree.Isomorphic(doc, back) {
			t.Errorf("%q does not survive a render round trip:\nfirst:\n%v\nsecond:\n%v", c.src, doc, back)
		}
	}
}

// TestRenderAllocs and TestRenderDeltaAllocs pin the renderers'
// allocations per page: strings.Builder growth and fmt, nothing per
// escaped node.
func TestRenderAllocs(t *testing.T) {
	doc, _ := sectionsPage(t)
	if n := testing.AllocsPerRun(20, func() { renderSink = Render(doc) }); n > 32 {
		t.Errorf("Render of a %d-node page: %v allocations, want at most 32", doc.Len(), n)
	}
}

func TestRenderDeltaAllocs(t *testing.T) {
	doc, dt := sectionsPage(t)
	if n := testing.AllocsPerRun(20, func() { renderSink = RenderDelta(dt) }); n > 96 {
		t.Errorf("RenderDelta of a %d-node page: %v allocations, want at most 96", doc.Len(), n)
	}
}

// TestRenderConcurrent renders shared trees from several goroutines: the
// escapers are shared package state.
func TestRenderConcurrent(t *testing.T) {
	doc, dt := sectionsPage(t)
	wantPage, wantDelta := Render(doc), RenderDelta(dt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if Render(doc) != wantPage {
					t.Error("concurrent Render differs from the sequential output")
					return
				}
				if RenderDelta(dt) != wantDelta {
					t.Error("concurrent RenderDelta differs from the sequential output")
					return
				}
			}
		}()
	}
	wg.Wait()
}

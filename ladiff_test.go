package ladiff_test

import (
	"strings"
	"testing"

	"ladiff"
)

func TestQuickstartFlow(t *testing.T) {
	oldT, err := ladiff.ParseLatex(`\section{S}
Alpha sentence stays right here. Beta sentence will get deleted now. Gamma sentence anchors the tail end.`)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := ladiff.ParseLatex(`\section{S}
Alpha sentence stays right here. Brand new replacement sentence arrives. Gamma sentence anchors the tail end.`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins, del, _, _ := res.Script.Counts()
	if ins != 1 || del != 1 {
		t.Fatalf("script %v", res.Script)
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		t.Fatal(err)
	}
	out := ladiff.RenderLatex(dt)
	if !strings.Contains(out, "\\textbf{") || !strings.Contains(out, "{\\small") {
		t.Fatalf("markup missing:\n%s", out)
	}
}

func TestProgrammaticTrees(t *testing.T) {
	oldT := ladiff.NewTreeWithRoot("db", "")
	tbl := oldT.AppendChild(oldT.Root(), "table", "users")
	oldT.AppendChild(tbl, "row", "id=1 name=ann role=admin")
	oldT.AppendChild(tbl, "row", "id=2 name=bob role=user")

	newT := ladiff.NewTreeWithRoot("db", "")
	tbl2 := newT.AppendChild(newT.Root(), "table", "users")
	newT.AppendChild(tbl2, "row", "id=2 name=bob role=user")
	newT.AppendChild(tbl2, "row", "id=1 name=ann role=owner")

	opts := ladiff.Options{}
	opts.Match.Compare = ladiff.CompareTokenSet
	opts.Match.LeafThreshold = 1.0
	res, err := ladiff.Diff(oldT, newT, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ladiff.Isomorphic(res.Transformed, newT) {
		t.Fatal("pipeline did not converge")
	}
	_, _, upd, mov := res.Script.Counts()
	if upd != 1 || mov != 1 {
		t.Fatalf("script %v: want one update and one reorder move", res.Script)
	}
}

func TestExplicitMatchingEntryPoint(t *testing.T) {
	oldT, _ := ladiff.ParseTree("root\n  a \"x\"\n  a \"y\"")
	newT, _ := ladiff.ParseTree("root\n  a \"y\"\n  a \"x\"")
	m := ladiff.NewMatching()
	// Keyed domain: the caller knows the correspondence.
	if err := m.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(3, 2); err != nil {
		t.Fatal(err)
	}
	res, err := ladiff.ComputeEditScript(oldT, newT, m)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, mov := res.Script.Counts()
	if mov != 1 {
		t.Fatalf("script %v: want a single reorder move", res.Script)
	}
}

func TestZhangShashaBaselineAccessible(t *testing.T) {
	a, _ := ladiff.ParseTree("r\n  x \"1\"")
	b, _ := ladiff.ParseTree("r\n  x \"2\"")
	d, err := ladiff.ZhangShashaDistance(a, b)
	if err != nil || d != 1 {
		t.Fatalf("distance = %v, %v", d, err)
	}
}

func TestAcyclicCheckAccessible(t *testing.T) {
	good, _ := ladiff.ParseTree("doc\n  s \"x\"")
	if err := ladiff.CheckAcyclicLabels(good); err != nil {
		t.Fatal(err)
	}
	bad, _ := ladiff.ParseTree("doc\n  doc \"x\"")
	if err := ladiff.CheckAcyclicLabels(bad); err == nil {
		t.Fatal("self-nesting should be flagged")
	}
}

func TestFrontEndsAccessible(t *testing.T) {
	h, err := ladiff.ParseHTML("<h1>T</h1><p>One sentence.</p>")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Leaves()) != 1 {
		t.Fatalf("html leaves = %d", len(h.Leaves()))
	}
	if !strings.Contains(ladiff.RenderHTML(h), "<h1>T</h1>") {
		t.Fatal("html render lost heading")
	}
	x := ladiff.ParseText("Plain sentence one. Plain sentence two.")
	if len(x.Leaves()) != 2 {
		t.Fatalf("text leaves = %d", len(x.Leaves()))
	}
	if !strings.Contains(ladiff.RenderText(x), "Plain sentence one.") {
		t.Fatal("text render lost content")
	}
	l, err := ladiff.ParseLatex(`\section{S}
Hello there world.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ladiff.RenderLatexPlain(l), "\\section{S}") {
		t.Fatal("latex render lost heading")
	}
}

func TestComparersExported(t *testing.T) {
	if ladiff.CompareExact("a", "a") != 0 {
		t.Fatal("exact")
	}
	if ladiff.CompareWordLCS("a b", "a b") != 0 {
		t.Fatal("wordlcs")
	}
	if ladiff.CompareLevenshtein("abc", "abc") != 0 {
		t.Fatal("levenshtein")
	}
	if ladiff.CompareTokenSet("a b", "b a") != 0 {
		t.Fatal("tokenset")
	}
	if ladiff.CompareFoldedWords("A!", "a") != 0 {
		t.Fatal("folded")
	}
	if ladiff.UnitCosts().InsertCost != 1 {
		t.Fatal("unit costs")
	}
}

// TestInvalidUTF8RawBytes: the library diffs documents as byte strings;
// a byte that is not valid UTF-8 reaches the script as it is.
func TestInvalidUTF8RawBytes(t *testing.T) {
	oldT := ladiff.ParseText("Alpha beta gamma delta. Epsilon zeta eta theta. Iota \xce kappa lambda mu nu.")
	newT := ladiff.ParseText("Alpha beta gamma delta. Epsilon zeta eta theta. Iota \xce kappa lambda mu nu xi.")
	res, err := ladiff.Diff(oldT, newT, ladiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Script) != 1 || res.Script[0].Value != "Iota \xce kappa lambda mu nu xi." {
		t.Fatalf("script %v, want one update to the raw bytes", res.Script)
	}
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladiff"
)

// capture runs fn with os.Stdout redirected and returns what it
// printed, read while fn runs so no output outgrows the pipe.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		out <- data
	}()
	runErr := fn()
	w.Close()
	return string(<-out), runErr
}

func texPaths(t *testing.T) (string, string) {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "texbook_old.tex"),
		filepath.Join("..", "..", "testdata", "texbook_new.tex")
}

// TestMarkedOutput pins the default output on the TeXbook pair to the
// golden marked-up document byte for byte: the CLI parses and renders
// through the store's format table, the same path ladiffd takes.
func TestMarkedOutput(t *testing.T) {
	oldP, newP := texPaths(t)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "marked"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "texbook_marked.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("marked output differs from texbook_marked.golden:\n%s", out)
	}
}

func TestScriptOutput(t *testing.T) {
	oldP, newP := texPaths(t)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "script", format: "latex", post: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"op": "move"`) || !strings.Contains(out, `"op": "update"`) {
		t.Fatalf("script JSON missing ops:\n%s", out)
	}
}

func TestSummaryOutput(t *testing.T) {
	oldP, newP := texPaths(t)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "summary", t: 0.7, f: 0.6})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"old tree:", "script:", "distances:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}

	// A leaf of an xml record is element text, not a sentence.
	oldX, newX := writeFiles(t, `<db><rec id="1"><f>alpha beta</f><g>gamma</g></rec></db>`,
		`<db><rec id="1"><f>alpha beta</f><g>delta</g></rec></db>`, ".xml")
	if out, err = capture(t, func() error { return run(oldX, newX, options{out: "summary"}) }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " leaves)\nnew tree:") || strings.Contains(out, "sentences") {
		t.Errorf("xml summary does not count leaves:\n%s", out)
	}
}

func TestDeltaOutput(t *testing.T) {
	oldP, newP := texPaths(t)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "delta"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IDN document") {
		t.Fatalf("delta output missing root:\n%s", out)
	}
}

func TestTextAndHTMLFormats(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.txt")
	newP := filepath.Join(dir, "new.txt")
	os.WriteFile(oldP, []byte("A stable sentence stays. A doomed one goes away. Another stable one anchors."), 0o644)
	os.WriteFile(newP, []byte("A stable sentence stays. A new one arrives today. Another stable one anchors."), 0o644)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "summary"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 insert, 1 delete") {
		t.Fatalf("text diff summary:\n%s", out)
	}

	oldH := filepath.Join(dir, "old.html")
	newH := filepath.Join(dir, "new.html")
	os.WriteFile(oldH, []byte("<p>A stable sentence stays here. Another stable sentence also stays.</p>"), 0o644)
	os.WriteFile(newH, []byte("<p>A stable sentence stays here. Another stable sentence also stays. Plus one brand new arrival.</p>"), 0o644)
	out, err = capture(t, func() error {
		return run(oldH, newH, options{out: "summary"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 insert, 0 delete") {
		t.Fatalf("html diff summary:\n%s", out)
	}
}

func TestQueryOutput(t *testing.T) {
	oldP, newP := texPaths(t)
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "query", query: "**/sentence[changed]"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "document/section/paragraph/sentence") {
		t.Fatalf("query output:\n%s", out)
	}
	if err := run(oldP, newP, options{out: "query"}); err == nil {
		t.Fatal("expected error for missing -query")
	}
}

// TestLevelFlag pins the flag spellings of the §9 optimality levels:
// the default, -post, -engine simple -post and -engine zs print the
// script and the summary of DiffAtLevel(k) for k = 0..3. The summary's
// r1/r2 counters tell the four apart on the TeXbook pair, where the
// first three scripts agree.
func TestLevelFlag(t *testing.T) {
	oldP, newP := texPaths(t)
	oldT, newT := parseTex(t, oldP), parseTex(t, newP)
	spellings := []options{{}, {post: true}, {engine: "simple", post: true}, {engine: "zs"}}
	for k, o := range spellings {
		stats := &ladiff.MatchStats{}
		res, err := ladiff.DiffAtLevel(oldT, newT, ladiff.OptimalityLevel(k), ladiff.MatchOptions{Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		script, err := json.MarshalIndent(res.Script, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		summary, err := capture(t, func() error { return summarize(res, stats) })
		if err != nil {
			t.Fatal(err)
		}
		for out, want := range map[string]string{"script": string(script) + "\n", "summary": summary} {
			o.out = out
			got, err := capture(t, func() error { return run(oldP, newP, o) })
			if err != nil {
				t.Fatalf("A(%d): %v", k, err)
			}
			if got != want {
				t.Errorf("%+v prints a %s other than A(%d)'s:\n%s\nwant:\n%s", o, out, k, got, want)
			}
		}
	}
}

func parseTex(t *testing.T, path string) *ladiff.Tree {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ladiff.ParseLatex(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestErrors(t *testing.T) {
	oldP, newP := texPaths(t)
	if err := run("missing.tex", newP, options{out: "marked"}); err == nil {
		t.Fatal("expected error for missing file")
	}
	if err := run(oldP, newP, options{out: "marked", format: "nosuch"}); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if err := run(oldP, newP, options{out: "nosuch"}); err == nil {
		t.Fatal("expected error for unknown output")
	}
	if err := run(oldP, newP, options{out: "marked", t: 0.3}); err == nil {
		t.Fatal("expected error for t < 0.5")
	}
}

// captureBoth runs fn with both stdout and stderr redirected and
// returns what each received.
func captureBoth(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	rOut, wOut, pipeErr := os.Pipe()
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	rErr, wErr, pipeErr := os.Pipe()
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	os.Stdout, os.Stderr = wOut, wErr
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	runErr := fn()
	wOut.Close()
	wErr.Close()
	outData, readErr := io.ReadAll(rOut)
	if readErr != nil {
		t.Fatal(readErr)
	}
	errData, readErr := io.ReadAll(rErr)
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(outData), string(errData), runErr
}

// TestTraceFlag pins the -trace contract: the span tree goes to
// stderr in the documented shape — a root "ladiff" line and the
// parse/match/generate/serialize phase lines with their work-counter
// attributes — while stdout stays byte-identical to an untraced run.
func TestTraceFlag(t *testing.T) {
	oldP, newP := texPaths(t)
	plain, err := capture(t, func() error {
		return run(oldP, newP, options{out: "marked"})
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := captureBoth(t, func() error {
		return run(oldP, newP, options{out: "marked", trace: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Errorf("-trace changed stdout:\n%.200s\nvs\n%.200s", traced, plain)
	}
	if !strings.HasPrefix(trace, "ladiff ") {
		t.Fatalf("trace does not start with the root line:\n%s", trace)
	}
	lines := strings.Split(strings.TrimRight(trace, "\n"), "\n")
	wantPhases := []string{"parse ", "match ", "generate ", "serialize "}
	wantAttrs := []string{"format=latex", "old_nodes=", "r1_leaf_compares=", "visits=", "out=marked"}
	for _, want := range wantPhases {
		found := false
		for _, line := range lines[1:] {
			if strings.Contains(line, "─ "+want) {
				found = true
			}
		}
		if !found {
			t.Errorf("trace missing phase %q:\n%s", strings.TrimSpace(want), trace)
		}
	}
	for _, want := range wantAttrs {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing attribute %q:\n%s", want, trace)
		}
	}
	// Every line is "name NNNµs [key=value...]" under tree drawing.
	for i, line := range lines {
		if i == 0 {
			continue
		}
		if !strings.HasPrefix(line, "├─ ") && !strings.HasPrefix(line, "└─ ") &&
			!strings.HasPrefix(line, "│  ") && !strings.HasPrefix(line, "   ") {
			t.Errorf("trace line %d not tree-drawn: %q", i, line)
		}
		if !strings.Contains(line, "µs") {
			t.Errorf("trace line %d has no duration: %q", i, line)
		}
	}
}

// TestTraceFlagDisarmsAfterRun pins that the CLI's Activate is scoped
// to the run: a second untraced run must not be observed.
func TestTraceFlagDisarmsAfterRun(t *testing.T) {
	oldP, newP := texPaths(t)
	_, _, err := captureBoth(t, func() error {
		return run(oldP, newP, options{out: "marked", trace: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := captureBoth(t, func() error {
		return run(oldP, newP, options{out: "marked"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		t.Errorf("untraced run after a traced one wrote to stderr:\n%s", trace)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladiff"
)

// writeFiles writes an old/new pair with the given extension into a
// fresh temporary directory.
func writeFiles(t *testing.T, oldSrc, newSrc, ext string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old"+ext)
	newP := filepath.Join(dir, "new"+ext)
	if err := os.WriteFile(oldP, []byte(oldSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(newSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return oldP, newP
}

// A generic tree in the indented form of (*tree.Tree).String whose two
// items swap places.
const oldTree = `root
  item "alpha beta gamma"
  item "delta epsilon zeta"`

const newTree = `root
  item "delta epsilon zeta"
  item "alpha beta gamma"`

func TestTreeScript(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "script"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"op": "move"`) {
		t.Fatalf("expected a move for the swap:\n%s", out)
	}
}

func TestTreeDeltaOutput(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "delta", compare: "exact"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MOV#") || !strings.Contains(out, "MRK#") {
		t.Fatalf("expected move pair in delta:\n%s", out)
	}
}

func TestMatchingOutput(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "matching", format: "tree"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("expected 3 matched pairs:\n%s", out)
	}
}

// TestJSONOutputTrees checks that -out json on a generic tree pair
// emits the delta wire format: valid JSON that decodes to a delta tree
// with the move pair of the swap.
func TestJSONOutputTrees(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var dt ladiff.DeltaTree
	if err := json.Unmarshal([]byte(out), &dt); err != nil {
		t.Fatalf("-out json does not decode as a delta tree: %v\n%s", err, out)
	}
	if dt.Moves != 1 {
		t.Errorf("decoded delta has %d move pairs, want 1 for the swap", dt.Moves)
	}
}

// TestTokenSetTrees diffs a database dump as a generic tree: with the
// token-set comparer and f = 1, the row whose role changed is one update.
func TestTokenSetTrees(t *testing.T) {
	oldDump := `db
  row "id=1 name=ann role=admin"
  row "id=2 name=bob role=user"`
	newDump := `db
  row "id=1 name=ann role=owner"
  row "id=2 name=bob role=user"`
	oldP, newP := writeFiles(t, oldDump, newDump, ".tree")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "summary", f: 1.0, compare: "tokenset"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 update") {
		t.Fatalf("expected one update:\n%s", out)
	}
}

func TestXMLFormat(t *testing.T) {
	oldXML := `<db><rec id="1"><f>alpha beta gamma delta</f></rec></db>`
	newXML := `<db><rec id="1"><f>alpha beta gamma echo</f></rec></db>`
	oldP, newP := writeFiles(t, oldXML, newXML, ".xml")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "summary"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 update") {
		t.Fatalf("xml diff summary:\n%s", out)
	}
}

func TestJSONDocFormat(t *testing.T) {
	oldJSON := `{"host": "db1.internal", "port": 5432}`
	newJSON := `{"host": "db2.internal", "port": 5432}`
	oldP, newP := writeFiles(t, oldJSON, newJSON, ".txt")
	out, err := capture(t, func() error {
		return run(oldP, newP, options{out: "summary", format: "json", compare: "levenshtein"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 update") {
		t.Fatalf("json diff summary:\n%s", out)
	}
}

// TestComparerSelection runs every -compare name on the same pair;
// TestExitCodes refuses an unknown one.
func TestComparerSelection(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	for _, name := range []string{"wordlcs", "exact", "levenshtein", "tokenset"} {
		if _, err := capture(t, func() error {
			return run(oldP, newP, options{out: "script", compare: name})
		}); err != nil {
			t.Errorf("comparer %q: %v", name, err)
		}
	}
}

// TestTreeErrors runs the refusals on a generic tree pair and checks
// that each message names what it refused: the file that failed to
// load, or the bad flag value beside the values that are accepted.
func TestTreeErrors(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	badP, _ := writeFiles(t, "{not json", "{}", ".json")
	missingP := filepath.Join(t.TempDir(), "missing.tree")
	for _, c := range []struct {
		name     string
		old, new string
		o        options
		want     []string
	}{
		{"missing file", missingP, newP, options{out: "script"}, []string{missingP}},
		{"unknown format", oldP, newP, options{out: "script", format: "nosuch"}, []string{`"nosuch"`, "tree"}},
		{"unknown output", oldP, newP, options{out: "nosuch"}, []string{`"nosuch"`, "matching"}},
		{"unknown comparer", oldP, newP, options{out: "script", compare: "nosuch"}, []string{`"nosuch"`, "tokenset"}},
		{"bad JSON", badP, badP, options{out: "script"}, []string{badP}},
	} {
		err := run(c.old, c.new, c.o)
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
}

// TestTreeExitCodes pins the exit-code contract on a generic tree
// pair: a bad input exits 3, a bad threshold 4 and a bad flag 2.
func TestTreeExitCodes(t *testing.T) {
	oldP, newP := writeFiles(t, oldTree, newTree, ".tree")
	badP, _ := writeFiles(t, "{not json", "{}", ".json")
	for _, c := range []struct {
		name     string
		old, new string
		o        options
		want     int
	}{
		{"success", oldP, newP, options{out: "summary"}, 0},
		{"bad JSON input", badP, badP, options{out: "script"}, exitParse},
		{"missing input", "missing", newP, options{out: "script"}, exitParse},
		{"invalid threshold", oldP, newP, options{out: "script", t: 0.3}, exitDiff},
		{"unknown -out", oldP, newP, options{out: "nosuch"}, exitUsage},
		{"unknown -compare", oldP, newP, options{out: "script", compare: "nosuch"}, exitUsage},
	} {
		_, err := capture(t, func() error { return run(c.old, c.new, c.o) })
		if got := exitCode(err); got != c.want {
			t.Errorf("%s: exit %d, want %d (%v)", c.name, got, c.want, err)
		}
	}
}

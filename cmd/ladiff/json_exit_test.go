package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/server"
)

// TestExitCodes pins the documented exit-code contract: scripts must be
// able to distinguish a bad invocation (2) from a bad input (3) from a
// pipeline failure (4).
func TestExitCodes(t *testing.T) {
	oldP, newP := texPaths(t)
	for _, c := range []struct {
		name     string
		old, new string
		o        options
		want     int
	}{
		{"success", oldP, newP, options{out: "summary"}, 0},
		{"missing input", "missing.tex", newP, options{out: "marked"}, exitParse},
		{"invalid threshold", oldP, newP, options{out: "marked", t: 0.3}, exitDiff},
		// Usage errors are found before any file is read, so missing
		// inputs still exit 2, not 3.
		{"unknown -out", "missing", "missing", options{out: "nosuch"}, exitUsage},
		{"missing -query", "missing", "missing", options{out: "query"}, exitUsage},
		{"unparsable -query", "missing", "missing", options{out: "query", query: "**/sentence[nosuchkind"}, exitUsage},
		{"unknown -format", "missing", "missing", options{out: "marked", format: "nosuch"}, exitUsage},
		{"unknown -compare", "missing", "missing", options{out: "marked", compare: "nosuch"}, exitUsage},
		{"unknown -engine", "missing", "missing", options{out: "marked", engine: "nosuch"}, exitUsage},
	} {
		_, err := capture(t, func() error { return run(c.old, c.new, c.o) })
		if got := exitCode(err); got != c.want {
			t.Errorf("%s: exit %d, want %d (%v)", c.name, got, c.want, err)
		}
	}
	if _, err := runHash([]string{"missing"}, "nosuch", false); exitCode(err) != exitUsage {
		t.Errorf("-hash with unknown -format: exit %d, want %d (%v)", exitCode(err), exitUsage, err)
	}
}

// TestExitNaNThreshold: a NaN threshold (the flag parser accepts "NaN")
// is refused like any other out-of-range one, never run as a matching
// that pairs nothing.
func TestExitNaNThreshold(t *testing.T) {
	oldP, newP := texPaths(t)
	for _, c := range []struct {
		name string
		t, f float64
	}{{"-f 1.5", 0, 1.5}, {"-f NaN", 0, math.NaN()}, {"-t NaN", math.NaN(), 0}} {
		if err := run(oldP, newP, options{out: "summary", t: c.t, f: c.f}); exitCode(err) != exitDiff {
			t.Errorf("%s: exit %d, want %d (%v)", c.name, exitCode(err), exitDiff, err)
		}
	}
}

// TestExitInternal pins exit code 5 for internal failures: an engine
// panic (injected here) must be contained, classified ErrInternal, and
// distinguishable from a pipeline failure on bad input (4).
func TestExitInternal(t *testing.T) {
	oldP, newP := texPaths(t)
	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.Match, Mode: fault.ModePanic},
	}})
	defer deactivate()
	err := run(oldP, newP, options{out: "summary"})
	if exitCode(err) != exitInternal {
		t.Errorf("engine panic: exit %d, want %d (%v)", exitCode(err), exitInternal, err)
	}
}

// TestJSONFlagMatchesServer pins the one-wire-format contract for
// every format of the server's table: -out json must emit the delta
// JSON POST /v1/diff returns with output=delta, and -out marked the
// document it returns with output=marked, byte for byte. The CLI picks
// each format by the files' extension.
func TestJSONFlagMatchesServer(t *testing.T) {
	oldP, newP := texPaths(t)
	oldTex, newTex := readFile(t, oldP), readFile(t, newP)
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	for _, c := range []struct{ format, ext, old, new string }{
		{"latex", ".tex", oldTex, newTex},
		{"html", ".html",
			"<p>A stable sentence stays here. Another stable sentence also stays.</p>",
			"<p>A stable sentence stays here. Another stable sentence also stays. Plus one brand new arrival.</p>"},
		{"text", ".txt",
			"A stable sentence stays. A doomed one goes away. Another stable one anchors.",
			"A stable sentence stays. A new one arrives today. Another stable one anchors."},
		{"xml", ".xml",
			`<db><rec id="1"><f>alpha beta gamma delta</f></rec><rec id="2"><f>one two three four</f></rec></db>`,
			`<db><rec id="2"><f>one two three four</f></rec><rec id="1"><f>alpha beta gamma echo</f></rec></db>`},
		{"json", ".json", `{"host": "db1.internal", "port": 5432}`, `{"host": "db2.internal", "port": 5432}`},
		{"tree", ".tree", oldTree, newTree},
	} {
		t.Run(c.format, func(t *testing.T) {
			oldF, newF := writeFiles(t, c.old, c.new, c.ext)
			cliJSON, err := capture(t, func() error { return run(oldF, newF, options{out: "json"}) })
			if err != nil {
				t.Fatal(err)
			}
			cliMarked, err := capture(t, func() error { return run(oldF, newF, options{out: "marked"}) })
			if err != nil {
				t.Fatal(err)
			}

			var cliCompact, srvCompact bytes.Buffer
			if err := json.Compact(&cliCompact, []byte(cliJSON)); err != nil {
				t.Fatalf("-out json is not valid JSON: %v", err)
			}
			if err := json.Compact(&srvCompact, postDiff(t, ts.URL, c.format, c.old, c.new, "delta").Delta); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cliCompact.Bytes(), srvCompact.Bytes()) {
				t.Errorf("-out json differs from the server wire format:\ncli: %.300s\nsrv: %.300s",
					cliCompact.Bytes(), srvCompact.Bytes())
			}
			if doc := postDiff(t, ts.URL, c.format, c.old, c.new, "marked").Document; cliMarked != doc {
				t.Errorf("-out marked differs from the server's document:\ncli: %.300s\nsrv: %.300s", cliMarked, doc)
			}

			// The output is a decodable delta tree, not just matching bytes.
			var dt ladiff.DeltaTree
			if err := json.Unmarshal([]byte(cliJSON), &dt); err != nil {
				t.Fatalf("-out json does not decode as a delta tree: %v", err)
			}
			if dt.Root == nil {
				t.Fatal("-out json decoded to an empty delta tree")
			}
		})
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// postDiff sends one /v1/diff request and decodes its 200 response.
func postDiff(t *testing.T, url, format, oldSrc, newSrc, output string) server.DiffResponse {
	t.Helper()
	body, err := json.Marshal(server.DiffRequest{Old: oldSrc, New: newSrc, Format: format, Output: output})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server diff (%s, %s): status %d", format, output, resp.StatusCode)
	}
	var diffResp server.DiffResponse
	if err := json.NewDecoder(resp.Body).Decode(&diffResp); err != nil {
		t.Fatal(err)
	}
	return diffResp
}

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
	"ladiff/internal/cli"
	"ladiff/internal/fault"
	"ladiff/internal/server"
)

// TestExitCodes pins the documented exit-code contract: scripts must be
// able to distinguish a bad invocation (2) from a bad input (3) from a
// pipeline failure (4).
func TestExitCodes(t *testing.T) {
	oldP, newP := texPaths(t)

	if err := run(oldP, newP, "", "summary", 0, 0, false, "", -1, "", false, false, false); cli.ExitCode(err) != 0 {
		t.Errorf("successful run: exit %d, want 0 (%v)", cli.ExitCode(err), err)
	}
	if err := run("missing.tex", newP, "", "marked", 0, 0, false, "", -1, "", false, false, false); cli.ExitCode(err) != cli.ExitParse {
		t.Errorf("missing input: exit %d, want %d (%v)", cli.ExitCode(err), cli.ExitParse, err)
	}
	if err := run(oldP, newP, "", "marked", 0.3, 0, false, "", -1, "", false, false, false); cli.ExitCode(err) != cli.ExitDiff {
		t.Errorf("invalid threshold: exit %d, want %d (%v)", cli.ExitCode(err), cli.ExitDiff, err)
	}
	if err := run(oldP, newP, "", "nosuch", 0, 0, false, "", -1, "", false, false, false); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("unknown output: exit %d, want %d (%v)", cli.ExitCode(err), cli.ExitUsage, err)
	}
	if err := run(oldP, newP, "", "query", 0, 0, false, "", -1, "", false, false, false); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("missing -query: exit %d, want %d (%v)", cli.ExitCode(err), cli.ExitUsage, err)
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
		if err := run(oldP, newP, "", "summary", c.t, c.f, false, "", -1, "", false, false, false); cli.ExitCode(err) != cli.ExitDiff {
			t.Errorf("%s: exit %d, want %d (%v)", c.name, cli.ExitCode(err), cli.ExitDiff, err)
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
	err := run(oldP, newP, "", "summary", 0, 0, false, "", -1, "", false, false, false)
	if cli.ExitCode(err) != cli.ExitInternal {
		t.Errorf("engine panic: exit %d, want %d (%v)", cli.ExitCode(err), cli.ExitInternal, err)
	}
}

// TestJSONFlagMatchesServer pins the one-wire-format contract: -json
// must emit byte-identical delta JSON to what POST /v1/diff with
// output=delta returns for the same inputs.
func TestJSONFlagMatchesServer(t *testing.T) {
	oldP, newP := texPaths(t)
	cliOut, err := capture(t, func() error {
		return run(oldP, newP, "", "marked", 0, 0, false, "", -1, "", true, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}

	oldSrc, err := os.ReadFile(oldP)
	if err != nil {
		t.Fatal(err)
	}
	newSrc, err := os.ReadFile(newP)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	reqBody, _ := json.Marshal(server.DiffRequest{
		Old: string(oldSrc), New: string(newSrc), Format: "latex", Output: "delta",
	})
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var diffResp server.DiffResponse
	if err := json.NewDecoder(resp.Body).Decode(&diffResp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server diff: status %d", resp.StatusCode)
	}

	var cliCompact, srvCompact bytes.Buffer
	if err := json.Compact(&cliCompact, []byte(cliOut)); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if err := json.Compact(&srvCompact, diffResp.Delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cliCompact.Bytes(), srvCompact.Bytes()) {
		t.Errorf("-json delta differs from the server wire format:\ncli: %.300s\nsrv: %.300s",
			cliCompact.Bytes(), srvCompact.Bytes())
	}

	// The output is a decodable delta tree, not just matching bytes.
	var dt ladiff.DeltaTree
	if err := json.Unmarshal([]byte(cliOut), &dt); err != nil {
		t.Fatalf("-json output does not decode as a delta tree: %v", err)
	}
	if dt.Root == nil {
		t.Fatal("-json output decoded to an empty delta tree")
	}
}

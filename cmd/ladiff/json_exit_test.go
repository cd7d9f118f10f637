package main

import (
	"math"
	"testing"

	"ladiff/internal/fault"
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

package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	if err := fn(); err != nil {
		w.Close()
		t.Fatalf("experiment failed: %v", err)
	}
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The cheap experiments run in full; the expensive sweeps (fig13a/b at
// full size) are exercised through the harness's own tests and the
// benchmarks, so here we only verify the table1/matchers/zs/editscript/
// ablation printers end to end.
func TestRunTable1(t *testing.T) {
	out := capture(t, runTable1)
	if !strings.Contains(out, "Match threshold (t):") || !strings.Contains(out, "1.0") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunEditScript(t *testing.T) {
	out := capture(t, runEditScript)
	if !strings.Contains(out, "script ops") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunAblation(t *testing.T) {
	out := capture(t, runAblation)
	for _, want := range []string{"A(0)/fast", "A(3)/optimal", "script cost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunZS(t *testing.T) {
	out := capture(t, runZS)
	if !strings.Contains(out, "zs/ours") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunFig13a(t *testing.T) {
	out := capture(t, runFig13a)
	if !strings.Contains(out, "mean e/d") || !strings.Contains(out, "set-C(large)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunFig13b(t *testing.T) {
	out := capture(t, runFig13b)
	if !strings.Contains(out, "bound/measured") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunQuality(t *testing.T) {
	out := capture(t, runQuality)
	if !strings.Contains(out, "A(3) gap") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunQualityPerf(t *testing.T) {
	outDir = t.TempDir()
	qualityPerfSections = []int{1}
	defer func() { qualityPerfSections = nil }()
	out := capture(t, runQualityPerf)
	for _, want := range []string{"cost ratio", "zs", "optimal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "BENCH_quality.json")); err != nil {
		t.Fatalf("report not written: %v", err)
	}
}

func TestRunRoutePerf(t *testing.T) {
	outDir = t.TempDir()
	routePerfPairs, routePerfRequests, routePerfWindow = 4, 45, 24
	defer func() { routePerfPairs, routePerfRequests, routePerfWindow = 0, 0, 0 }()
	out := capture(t, runRoutePerf)
	for _, want := range []string{"replicas-1", "replicas-4-kill", "retained hit ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "BENCH_routing.json")); err != nil {
		t.Fatalf("report not written: %v", err)
	}
}

func TestRunBatchPerf(t *testing.T) {
	outDir = t.TempDir()
	batchPerfPairs, batchPerfRounds = 8, 3
	defer func() { batchPerfPairs, batchPerfRounds = 0, 0 }()
	out := capture(t, runBatchPerf)
	for _, want := range []string{"sequential", "batch speedup over sequential", "submit->done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "BENCH_batch.json")); err != nil {
		t.Fatalf("report not written: %v", err)
	}
}

// TestMainDispatch runs the dispatcher over a stand-in table: a -run
// list naming an unknown experiment exits 2 with nothing run, and a
// comma list runs its experiments once each, in table order.
func TestMainDispatch(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	var ran []string
	experiments = nil
	for _, name := range []string{"a", "b", "c"} {
		experiments = append(experiments, experiment{name, func() error {
			ran = append(ran, name)
			return nil
		}})
	}
	for _, tc := range []struct {
		list string
		code int
		ran  []string
	}{
		{"nosuch", 2, nil},
		{"a,nosuch", 2, nil},
		{"c, a", 0, []string{"a", "c"}},
		{"b,b", 0, []string{"b"}},
		{"", 0, []string{"a", "b", "c"}},
	} {
		ran = nil
		if code := run(tc.list); code != tc.code || !reflect.DeepEqual(ran, tc.ran) {
			t.Errorf("-run %q: exit %d after running %q, want exit %d after %q", tc.list, code, ran, tc.code, tc.ran)
		}
	}
}

func TestRunMatchers(t *testing.T) {
	out := capture(t, runMatchers)
	if !strings.Contains(out, "fast compares") {
		t.Fatalf("output:\n%s", out)
	}
}

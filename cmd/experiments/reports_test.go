package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ladiff/internal/bench"
)

// TestCommittedReportsReproduce re-collects the reports whose counters
// are deterministic, at the configurations their runners use, and
// compares each with the committed file at the repository root, timing
// and host keys aside (see volatileKey). Each collector runs the fewest
// timed calls it takes: their number moves only the medians, never a
// counter.
//
// BENCH_routing.json and BENCH_batch.json are not compared. Routing's
// counts depend on timing: the kill scenario's cache hit rate moves with
// when the router ejects the victim. Every value batchperf measures is
// a timing, and the rest of its file repeats its configuration.
func TestCommittedReportsReproduce(t *testing.T) {
	for _, tc := range []struct {
		file    string
		collect func() (any, error)
	}{
		{"BENCH_matching.json", func() (any, error) { return bench.CollectMatchingPerf(3, matchPerfSlots) }},
		{"BENCH_editscript.json", func() (any, error) { return bench.CollectEditPerf(1) }},
		{"BENCH_hashing.json", func() (any, error) { return bench.CollectHashPerf(1) }},
		{"BENCH_quality.json", func() (any, error) { return bench.CollectQualityPerf(1, nil) }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var committed any
			if err := json.Unmarshal(data, &committed); err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
			report, err := tc.collect()
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip the fresh report through JSON so both sides
			// hold the same value types.
			if data, err = json.Marshal(report); err != nil {
				t.Fatal(err)
			}
			var fresh any
			if err := json.Unmarshal(data, &fresh); err != nil {
				t.Fatal(err)
			}
			for _, d := range diffReports("", committed, fresh, nil) {
				t.Errorf("%s: %s", tc.file, d)
			}
		})
	}
}

// volatileKey reports whether a report key holds a timing or a host
// value, which differ between runs.
func volatileKey(key string) bool {
	switch key {
	case "ns_per_op", "seconds", "speedup_x", "gomaxprocs", "num_cpu":
		return true
	}
	return strings.Contains(key, "_us") || strings.HasSuffix(key, "_per_sec")
}

// diffReports appends one line to diffs for each path below path where
// the decoded JSON values committed and fresh differ, skipping volatile
// keys.
func diffReports(path string, committed, fresh any, diffs []string) []string {
	switch c := committed.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			break
		}
		var keys []string
		for k := range c {
			keys = append(keys, k)
		}
		for k := range f {
			if _, ok := c[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if volatileKey(k) {
				continue
			}
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			diffs = diffReports(sub, c[k], f[k], diffs)
		}
		return diffs
	case []any:
		f, ok := fresh.([]any)
		if !ok || len(f) != len(c) {
			break
		}
		for i := range c {
			diffs = diffReports(fmt.Sprintf("%s[%d]", path, i), c[i], f[i], diffs)
		}
		return diffs
	default:
		if committed == fresh {
			return diffs
		}
	}
	return append(diffs, fmt.Sprintf("%s: committed %v, fresh %v", path, committed, fresh))
}

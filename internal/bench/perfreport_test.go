package bench

import "testing"

// TestCollectMatchingPerf runs the matchperf collector with trimmed
// multi-label pairs and checks the report: one non-empty row per pair.
// The collector itself fails when a row executes a different number of
// leaf compares than it counts (EffectiveLeafCompares != LeafCompares).
// The full measurement runs via cmd/experiments -run matchperf, and
// TestCommittedReportsReproduce there holds its counters to the
// committed BENCH_matching.json.
func TestCollectMatchingPerf(t *testing.T) {
	report, err := CollectMatchingPerf(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if report.GoMaxProcs < 1 || report.NumCPU < 1 {
		t.Errorf("gomaxprocs %d, num_cpu %d", report.GoMaxProcs, report.NumCPU)
	}
	byPair := map[string]MatchingPerfRun{}
	for _, r := range report.After {
		if r.NsPerOp <= 0 || r.Pairs == 0 || r.R1 == 0 || r.R2 == 0 {
			t.Errorf("%s: empty measurement: %+v", r.Name, r)
		}
		byPair[r.Pair] = r
	}
	if len(byPair) != 3 || len(report.After) != 3 {
		t.Errorf("%d rows over %d pairs, want 3 over 3", len(report.After), len(byPair))
	}
}

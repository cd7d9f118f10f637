package bench

import "testing"

// TestCollectMatchingPerf runs the matchperf collector with trimmed
// multi-label pairs and checks the report: one row per pair, and the
// document row reproduces the recorded seed's matching size and r1 (the
// seed charged r2 differently). The collector itself fails when a row
// executes a different number of leaf compares than it counts
// (EffectiveLeafCompares != LeafCompares). The full measurement runs
// via cmd/experiments -run matchperf.
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
	seed, doc := report.Before, byPair[report.Before.Pair]
	if doc.Pairs != seed.Pairs || doc.R1 != seed.R1 {
		t.Errorf("document pair: pairs/r1 = %d/%d, the seed recorded %d/%d",
			doc.Pairs, doc.R1, seed.Pairs, seed.R1)
	}
}

package bench

import "testing"

// TestCollectMatchingPerf runs the matchperf collector with trimmed
// multi-label pairs and checks the report: every row of one pair agrees
// on the matching size, r1 and r2 at every parallelism, and the
// document rows reproduce the recorded seed's matching size and r1 (the
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
	first := map[string]MatchingPerfRun{}
	for _, r := range report.After {
		if r.NsPerOp <= 0 || r.Pairs == 0 || r.R1 == 0 || r.R2 == 0 {
			t.Errorf("%s: empty measurement: %+v", r.Name, r)
		}
		f, ok := first[r.Pair]
		if !ok {
			first[r.Pair] = r
			continue
		}
		if r.Pairs != f.Pairs || r.R1 != f.R1 || r.R2 != f.R2 {
			t.Errorf("%s: pairs/r1/r2 = %d/%d/%d, %s has %d/%d/%d",
				r.Name, r.Pairs, r.R1, r.R2, f.Name, f.Pairs, f.R1, f.R2)
		}
	}
	if len(first) != 3 || len(report.After) != 6 {
		t.Errorf("%d rows over %d pairs, want 6 over 3", len(report.After), len(first))
	}
	seed, doc := report.Before, first[report.Before.Pair]
	if doc.Pairs != seed.Pairs || doc.R1 != seed.R1 {
		t.Errorf("document pair: pairs/r1 = %d/%d, the seed recorded %d/%d",
			doc.Pairs, doc.R1, seed.Pairs, seed.R1)
	}
}

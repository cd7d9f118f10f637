package main

import (
	"maps"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/tree"
)

// heldOutSeed was never used while the benchmark was tuned.
const heldOutSeed = 987654

func tiny(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: heldOutSeed, seconds: 6, trace: trace, setups: 2, small: true, workdir: t.TempDir()}
}

// Each workload runs at a tiny length, checks its outputs, and emits
// every named metric with its unit; its exact counters agree between
// the two set-ups; it opens no more load connections than there are
// CPUs.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"lib-latex", "serve-open", "docs-routed"} {
		for _, trace := range []bool{false, true} {
			res, env, err := run(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOpsForP99 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					w, trace, res.Correct, res.Failed, res.Attempted, env["problems"])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, trace, m.name, got, ok, m.unit)
				}
			}
			if n, ok := env["connections_opened"].(int64); ok && (n > int64(runtime.NumCPU()) || n > 2) {
				t.Errorf("%s: opened %d load connections on %d CPUs", w, n, runtime.NumCPU())
			}
			if trace && res.Metrics["anatomy.unexplained_pct"].Value > 10 {
				t.Errorf("%s: %.1f%% of op time unexplained", w, res.Metrics["anatomy.unexplained_pct"].Value)
			}
		}
	}
}

// The exact counters repeat bit for bit between separate runs of one
// seed.
func TestExactCountersRepeat(t *testing.T) {
	for _, w := range []string{"lib-latex", "docs-routed"} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			o := tiny(t, w, true)
			o.setups = 1
			b, err := workloads[w](o)
			if err != nil {
				t.Fatal(err)
			}
			ex := b.exact()
			if err := b.close(); err != nil {
				t.Fatal(err)
			}
			if len(ex) == 0 {
				t.Fatalf("%s: no exact counters", w)
			}
			if first == nil {
				first = ex
			} else if !maps.Equal(first, ex) {
				t.Errorf("%s: exact counters differ between runs: %v vs %v", w, first, ex)
			}
		}
	}
}

// A run too short for 1000 ops is flagged and carries no tail quantile.
func TestShortRunWithholdsP99(t *testing.T) {
	o := tiny(t, "lib-latex", false)
	o.seconds, o.setups = 0.05, 1
	res, env, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted >= minOpsForP99 {
		t.Skipf("%d ops in %.2fs; the run was not short", res.Attempted, o.seconds)
	}
	if _, ok := env["op_p99_ms"]; ok || res.Correct {
		t.Errorf("short run: p99 present %v, correct %v", ok, res.Correct)
	}
	if !strings.Contains(strings.Join(env["problems"].([]string), " "), "tail quantiles") {
		t.Errorf("short run not flagged: %v", env["problems"])
	}
}

// The open loop times each op from its due time, so a stalled op's
// backlog is charged to the ops queued behind it.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	lat, late := openLoop(40, time.Millisecond, 1, func(i int) (time.Time, bool) {
		if i == 5 {
			time.Sleep(stall)
		}
		return time.Now(), true
	})
	if lat[5] < ms(stall) {
		t.Fatalf("stalled op took %.1fms, want ≥ %.0fms", lat[5], ms(stall))
	}
	// Op 6 was due 1ms after op 5 and could only be sent once op 5
	// finished, so it waited about stall − 1ms.
	for i := 6; i < 10; i++ {
		if want := ms(stall) - float64(i-5) - 5; lat[i] < want || late[i] < want {
			t.Errorf("op %d: latency %.1fms, lateness %.1fms; want both ≥ %.1fms", i, lat[i], late[i], want)
		}
	}
	if lat[0] > ms(stall)/2 {
		t.Errorf("op before the stall took %.1fms", lat[0])
	}
}

// Paced bursts run exactly n ops however fast each is, and start each
// burst no earlier than its slot.
func TestPacedBurstsFixOpCount(t *testing.T) {
	start := time.Now()
	lat, late := pacedBursts(20, 5, 500, func(int) (time.Time, bool) { return time.Now(), true })
	if len(lat) != 20 || len(late) != 4 {
		t.Fatalf("%d latencies over %d bursts, want 20 over 4", len(lat), len(late))
	}
	// The fourth burst is due 3 × 5/500 s = 30 ms after the first.
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("20 ops in bursts of 5 at 500/s took %v, want ≥ 30ms", el)
	}
}

// The corpus fix: punctuated gen documents round-trip through html and
// latex at their generated size (an unpunctuated 780-node document
// parses back as 331 nodes), and text and xml parse to the predicted
// counts.
func TestCorpusRoundTrip(t *testing.T) {
	raw := document(gen.Sections(32).Doc)
	if raw.Len() != 780 {
		t.Fatalf("gen.Sections(32) has %d nodes, want 780", raw.Len())
	}
	rawNext, err := perturb(raw, gen.Classes()[4].Pert(3)) // insert-delete-heavy
	if err != nil {
		t.Fatal(err)
	}
	words := newWording(heldOutSeed)
	doc, next := words.text(raw), words.text(rawNext)
	for _, format := range []string{"html", "latex", "text", "xml"} {
		for _, d := range []*tree.Tree{doc, next} {
			if _, _, err := renderChecked(format, d); err != nil {
				t.Errorf("%s: %v", format, err)
			}
		}
	}
	for _, format := range []string{"html", "latex"} {
		text, _, err := render(format, doc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := parse(format, text)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !tree.Isomorphic(back, doc) {
			t.Errorf("%s: the %d-node document parses back as %d nodes, not isomorphic", format, doc.Len(), back.Len())
		}
	}
}

// Self time is a span minus the union of its children, and the root's
// self time is what no layer explains.
func TestAnatomySelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(d time.Duration) time.Time { return tr.epoch.Add(d * time.Millisecond) }
	tr.add(rootSpan, "a", at(0), at(10))
	tr.add("http", "a", at(1), at(10))
	tr.add("server", "a", at(2), at(9))
	tr.add("parse", "a", at(3), at(5))
	tr.add("match", "a", at(4), at(6)) // overlaps parse: union is 3..6
	a := tr.analyse()
	want := map[string]time.Duration{rootSpan: 1, "http": 2, "server": 4, "parse": 2, "match": 2}
	for name, d := range want {
		if got := a.self[name]; got != d*time.Millisecond {
			t.Errorf("%s self = %v, want %v", name, got, d*time.Millisecond)
		}
	}
	if a.ops != 1 || a.unexplainedPct() != 10 {
		t.Errorf("ops %d, unexplained %.1f%%; want 1 and 10%%", a.ops, a.unexplainedPct())
	}
}

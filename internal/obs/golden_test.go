package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the obs golden files")

// fixedTraceSnapshot is a fully deterministic trace in the shape the
// server emits: one request with parse/match/generate/serialize phase
// spans, match rounds, and the engine's attribute names. Both goldens
// derive from it, so the JSON schema and the text rendering are pinned
// together.
func fixedTraceSnapshot() TraceSnapshot {
	return TraceSnapshot{
		ID:          "9f2c11ab-000042",
		Name:        "POST /v1/diff",
		StartUnixUS: 1754400000000000,
		DurationUS:  1834,
		Error:       "http 504",
		Root: SpanSnapshot{
			Name:       "POST /v1/diff",
			DurationUS: 1834,
			Attrs:      []Attr{{Key: "http_status", Value: int64(504)}},
			Spans: []SpanSnapshot{
				{
					Name:       "parse",
					DurationUS: 210,
					Attrs: []Attr{
						{Key: "format", Value: "latex"},
						{Key: "old_nodes", Value: int64(52)},
						{Key: "new_nodes", Value: int64(54)},
					},
				},
				{
					Name:       "match",
					DurationUS: 940,
					Attrs: []Attr{
						{Key: "r1_leaf_compares", Value: int64(557)},
						{Key: "r2_partner_checks", Value: int64(431)},
						{Key: "pairs", Value: int64(48)},
					},
					Spans: []SpanSnapshot{
						{
							Name:       "round",
							DurationUS: 610,
							Attrs: []Attr{
								{Key: "rank", Value: int64(0)},
								{Key: "labels", Value: int64(2)},
							},
						},
						{
							Name:       "round",
							DurationUS: 270,
							Attrs: []Attr{
								{Key: "rank", Value: int64(1)},
								{Key: "labels", Value: int64(1)},
							},
						},
					},
				},
				{
					Name:       "generate",
					DurationUS: 480,
					Attrs: []Attr{
						{Key: "visits", Value: int64(106)},
						{Key: "ops", Value: int64(17)},
					},
					Spans: []SpanSnapshot{
						{
							Name:       "update-align-insert-move",
							DurationUS: 390,
							Attrs: []Attr{
								{Key: "updates", Value: int64(4)},
								{Key: "inserts", Value: int64(6)},
								{Key: "moves", Value: int64(4)},
							},
						},
						{
							Name:       "delete",
							DurationUS: 55,
							Attrs:      []Attr{{Key: "deletes", Value: int64(3)}},
						},
					},
				},
				{
					Name:       "serialize",
					DurationUS: 88,
					Attrs:      []Attr{{Key: "output", Value: "marked"}},
				},
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestTracesJSONGolden pins the /debug/traces wire format — field
// names, nesting, and ordering — against a byte-for-byte golden.
// Renaming a JSON tag anywhere in the snapshot types fails here.
func TestTracesJSONGolden(t *testing.T) {
	doc := RingSnapshot{
		Capacity: 32,
		Stats:    RingStats{Offered: 120, Kept: 34, Dropped: 86, Evicted: 2},
		Traces:   []TraceSnapshot{fixedTraceSnapshot()},
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "traces.golden.json", append(got, '\n'))
}

// TestTraceRenderGolden pins the `ladiff -trace` text rendering: tree
// drawing, the "name NNNµs key=value" line shape, and attribute order.
func TestTraceRenderGolden(t *testing.T) {
	got := RenderText(fixedTraceSnapshot().Root)
	checkGolden(t, "trace_render.golden.txt", []byte(got))
}

// TestLiveSnapshotMatchesSchema builds a real trace through the public
// API and checks its JSON document exposes exactly the pinned key set —
// the schema contract scrapers rely on, independent of durations.
func TestLiveSnapshotMatchesSchema(t *testing.T) {
	ring := NewRing(2)
	defer Activate(Config{Ring: ring})()
	tr, ctx := StartTrace(context.Background(), "POST /v1/diff", "req-9")
	_, sp := StartSpan(ctx, "parse")
	sp.Str("format", "latex")
	sp.End()
	tr.SetError("http 500")
	tr.Finish()
	ring.Offer(tr)

	data, err := json.Marshal(SnapshotTraces())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "ring document", doc, []string{"capacity", "stats", "traces"})

	var stats map[string]json.RawMessage
	if err := json.Unmarshal(doc["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "stats", stats, []string{"dropped", "evicted", "kept", "offered"})

	var traces []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traces"], &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("traces: %d, want 1", len(traces))
	}
	assertKeys(t, "trace", traces[0],
		[]string{"duration_us", "error", "id", "name", "root", "start_unix_us"})

	var root map[string]json.RawMessage
	if err := json.Unmarshal(traces[0]["root"], &root); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "root span", root, []string{"duration_us", "name", "spans"})
}

func assertKeys(t *testing.T, what string, m map[string]json.RawMessage, want []string) {
	t.Helper()
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%s keys %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s keys %v, want %v", what, got, want)
		}
	}
}

// TestRenderTextShape sanity-checks the renderer against a live span
// tree (durations vary, structure must not).
func TestRenderTextShape(t *testing.T) {
	defer Activate(Config{})()
	tr, ctx := StartTrace(context.Background(), "ladiff", "cli")
	_, sp := StartSpan(ctx, "parse")
	sp.Int("old_nodes", 23)
	sp.End()
	_, sp2 := StartSpan(ctx, "serialize")
	sp2.End()
	tr.Finish()
	time.Sleep(0)

	out := RenderText(tr.Snapshot().Root)
	lines := bytes.Split([]byte(out), []byte("\n"))
	if len(lines) != 4 { // root + 2 children + trailing newline
		t.Fatalf("rendered %d lines:\n%s", len(lines)-1, out)
	}
	if !bytes.HasPrefix(lines[0], []byte("ladiff ")) {
		t.Errorf("root line: %s", lines[0])
	}
	if !bytes.HasPrefix(lines[1], []byte("├─ parse ")) || !bytes.Contains(lines[1], []byte("old_nodes=23")) {
		t.Errorf("first child line: %s", lines[1])
	}
	if !bytes.HasPrefix(lines[2], []byte("└─ serialize ")) {
		t.Errorf("last child line: %s", lines[2])
	}
}

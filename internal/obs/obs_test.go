package obs

import (
	"context"
	"testing"
	"time"

	"ladiff/internal/testleak"
)

// TestDisabledByDefault pins the production state: nothing armed, every
// entry point a pass-through returning nils that are safe to use.
func TestDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("observability armed without Activate")
	}
	if Current() != nil {
		t.Fatal("Current() non-nil while disabled")
	}
	ctx := context.Background()
	tr, tctx := StartTrace(ctx, "op", "id")
	if tr != nil {
		t.Fatal("StartTrace built a trace while disabled")
	}
	if tctx != ctx {
		t.Fatal("StartTrace changed the context while disabled")
	}
	sctx, sp := StartSpan(ctx, "phase")
	if sp != nil {
		t.Fatal("StartSpan built a span while disabled")
	}
	if sctx != ctx {
		t.Fatal("StartSpan changed the context while disabled")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("SpanFrom found a span in a bare context")
	}
}

// TestNilSafety exercises every method on nil receivers — the exact
// calls every instrumented site makes on the disabled path.
func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.End()
	sp.Int("k", 1)
	sp.Str("k", "v")
	if snap := sp.Snapshot(); snap.Name != "" || len(snap.Spans) != 0 {
		t.Errorf("nil span snapshot not empty: %+v", snap)
	}
	var tr *Trace
	tr.SetError("boom")
	tr.Finish()
	if snap := tr.Snapshot(); snap.ID != "" {
		t.Errorf("nil trace snapshot not empty: %+v", snap)
	}
	Offer(nil)
	if SpanFrom(nil) != nil {
		t.Error("SpanFrom(nil) returned a span")
	}
	if _, sp := StartSpan(nil, "phase"); sp != nil {
		t.Error("StartSpan(nil ctx) returned a span")
	}
}

// TestSpanTree builds a small trace the way the engine does — nested
// StartSpan calls through derived contexts — and checks the snapshot
// reflects the nesting, attribute order, and timing.
func TestSpanTree(t *testing.T) {
	defer Activate(Config{})()
	tr, ctx := StartTrace(context.Background(), "POST /v1/diff", "req-1")
	if tr == nil {
		t.Fatal("StartTrace returned nil while armed")
	}
	if tr.ID != "req-1" || tr.Name != "POST /v1/diff" {
		t.Fatalf("trace identity: %+v", tr)
	}

	mctx, msp := StartSpan(ctx, "match")
	if msp == nil {
		t.Fatal("StartSpan under a trace returned nil")
	}
	if SpanFrom(mctx) != msp {
		t.Fatal("derived context does not carry the child span")
	}
	_, r0 := StartSpan(mctx, "round")
	r0.Int("rank", 0)
	r0.End()
	_, r1 := StartSpan(mctx, "round")
	r1.Int("rank", 1)
	r1.End()
	msp.Int("pairs", 21)
	msp.Str("mode", "sequential")
	msp.End()

	_, gsp := StartSpan(ctx, "generate")
	gsp.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.Root.Name != "POST /v1/diff" {
		t.Errorf("root name %q", snap.Root.Name)
	}
	if len(snap.Root.Spans) != 2 {
		t.Fatalf("root has %d children, want 2 (match, generate)", len(snap.Root.Spans))
	}
	match := snap.Root.Spans[0]
	if match.Name != "match" || len(match.Spans) != 2 {
		t.Fatalf("match span: %+v", match)
	}
	if match.Spans[0].Name != "round" || match.Spans[1].Name != "round" {
		t.Errorf("round spans: %+v", match.Spans)
	}
	// Attributes keep insertion order.
	if len(match.Attrs) != 2 || match.Attrs[0].Key != "pairs" || match.Attrs[1].Key != "mode" {
		t.Errorf("match attrs: %+v", match.Attrs)
	}
	if match.Attrs[0].Value != int64(21) || match.Attrs[1].Value != "sequential" {
		t.Errorf("match attr values: %+v", match.Attrs)
	}
	if snap.DurationUS < 0 || snap.StartUnixUS == 0 {
		t.Errorf("trace timing: %+v", snap)
	}
}

// TestUnendedSpanReportsZero pins the error-path contract: a span the
// run unwound past without End reports duration 0, not garbage.
func TestUnendedSpanReportsZero(t *testing.T) {
	defer Activate(Config{})()
	tr, ctx := StartTrace(context.Background(), "op", "id")
	_, sp := StartSpan(ctx, "abandoned")
	_ = sp
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Root.Spans) != 1 || snap.Root.Spans[0].DurationUS != 0 {
		t.Errorf("unended span: %+v", snap.Root.Spans)
	}
}

// TestEndIdempotent pins first-End-wins.
func TestEndIdempotent(t *testing.T) {
	defer Activate(Config{})()
	tr, ctx := StartTrace(context.Background(), "op", "id")
	_, sp := StartSpan(ctx, "phase")
	sp.End()
	first := sp.Snapshot().DurationUS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if again := sp.Snapshot().DurationUS; again != first {
		t.Errorf("second End moved the duration: %d → %d", first, again)
	}
	tr.Finish()
}

// TestActivateDeactivate pins that deactivation restores the disabled
// state (it does not nest).
func TestActivateDeactivate(t *testing.T) {
	deactivate := Activate(Config{})
	if !Enabled() {
		t.Fatal("not enabled after Activate")
	}
	deactivate()
	if Enabled() {
		t.Fatal("still enabled after deactivate")
	}
}

// TestNewRequestID pins uniqueness and shape.
func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("consecutive ids equal: %s", a)
	}
	if len(a) != 15 || a[8] != '-' {
		t.Fatalf("id shape %q, want 8-hex-prefix dash 6-digit-seq", a)
	}
}

// TestSpansLeakNoGoroutines pins that the span machinery spawns
// nothing: a trace abandoned on a cancelled or deadline-expired
// context leaves no goroutine behind.
func TestSpansLeakNoGoroutines(t *testing.T) {
	defer testleak.Check(t)()
	defer Activate(Config{Ring: NewRing(2)})()

	ctx, cancel := context.WithCancel(context.Background())
	tr, tctx := StartTrace(ctx, "op", "cancelled")
	_, sp := StartSpan(tctx, "phase")
	cancel()
	sp.End()
	tr.SetError(context.Canceled.Error())
	tr.Finish()
	Offer(tr)

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	tr2, tctx2 := StartTrace(dctx, "op", "deadline")
	_, sp2 := StartSpan(tctx2, "phase")
	_ = sp2 // abandoned without End, as a deadline unwind would
	tr2.Finish()
	Offer(tr2)
}

// TestDisabledCheckpointAllocs pins the disabled path's cost contract:
// no allocations at any checkpoint — the only cost is the atomic load.
func TestDisabledCheckpointAllocs(t *testing.T) {
	if Enabled() {
		t.Fatal("observability armed at test start")
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			t.Fatal("armed mid-test")
		}
	}); n != 0 {
		t.Errorf("Enabled() allocates %v per call on the disabled path", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "phase")
		sp.End()
	}); n != 0 {
		t.Errorf("StartSpan allocates %v per call on the disabled path", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr, _ := StartTrace(ctx, "op", "id")
		tr.Finish()
		Offer(tr)
	}); n != 0 {
		t.Errorf("StartTrace allocates %v per call on the disabled path", n)
	}
}

// BenchmarkDisabledCheckpoint is the regression guard CI's benchmark
// smoke runs: the disabled checkpoint must stay a few nanoseconds (one
// atomic load plus branches), allocation-free.
func BenchmarkDisabledCheckpoint(b *testing.B) {
	if Enabled() {
		b.Fatal("observability armed")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "phase")
		sp.End()
	}
}

// BenchmarkEnabledTrace measures the armed cost of one minimal traced
// request: trace plus one attributed phase span. Each iteration builds
// its own trace so the root's child list stays bounded.
func BenchmarkEnabledTrace(b *testing.B) {
	defer Activate(Config{})()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, tctx := StartTrace(ctx, "bench", "id")
		_, sp := StartSpan(tctx, "phase")
		sp.Int("k", int64(i))
		sp.End()
		tr.Finish()
	}
}

package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Trace is one traced request (or CLI run): an id, a root span, and —
// once Finish has been called — a total duration and optional error.
// A Trace is single-writer until Finish; after it is offered to a
// ring it is immutable, and the ring's CAS publication orders the
// writes before any reader's loads, so readers see it whole.
type Trace struct {
	// ID is the request id (the X-Request-Id header value server-side).
	ID string
	// Name labels the traced operation, e.g. "POST /v1/diff".
	Name string
	// Start is when the trace began.
	Start time.Time
	// Duration is the end-to-end wall time, set by Finish.
	Duration time.Duration
	// Err describes a failed run; empty on success. Errored traces are
	// retained by the ring ahead of any merely slow trace.
	Err string
	// Root is the root span; engine phase spans nest under it.
	Root *Span
}

// StartTrace builds a trace and returns it with a context carrying
// its root span, from which StartSpan derives phase spans. It returns
// (nil, ctx) when observability is disabled — callers treat a nil
// trace as "not tracing" and every downstream Span method is
// nil-safe.
func StartTrace(ctx context.Context, name, id string) (*Trace, context.Context) {
	if !Enabled() || ctx == nil {
		return nil, ctx
	}
	root := newSpan(name)
	t := &Trace{ID: id, Name: name, Start: root.start, Root: root}
	return t, context.WithValue(ctx, spanKey{}, root)
}

// SetError records a failure description (the last call wins).
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.Err = msg
}

// Finish ends the root span and fixes the trace's duration. Call it
// exactly once, before offering the trace to a ring.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
	t.Duration = time.Since(t.Start)
}

// TraceSnapshot is the wire form of one trace in the /debug/traces
// document. Field names are pinned by a golden test.
type TraceSnapshot struct {
	ID          string       `json:"id"`
	Name        string       `json:"name"`
	StartUnixUS int64        `json:"start_unix_us"`
	DurationUS  int64        `json:"duration_us"`
	Error       string       `json:"error,omitempty"`
	Root        SpanSnapshot `json:"root"`
}

// Snapshot captures the finished trace.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	return TraceSnapshot{
		ID:          t.ID,
		Name:        t.Name,
		StartUnixUS: t.Start.UnixMicro(),
		DurationUS:  t.Duration.Microseconds(),
		Error:       t.Err,
		Root:        t.Root.Snapshot(),
	}
}

// Request ids: a short random process prefix plus an atomic sequence
// number — unique across restarts without coordination, cheap to
// generate, and stable for the life of one request including retries.
var (
	reqSeq    atomic.Int64
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

// NewRequestID returns a fresh request id, e.g. "9f2c11ab-000042".
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqSeq.Add(1))
}

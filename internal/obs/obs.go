// Package obs is the zero-dependency observability layer of the diff
// stack: a context-propagated span tree over the engine phases (parse,
// match rounds, update/align/insert/move, delete, serialize), a
// process-wide metrics registry unifying the server's counters and
// histograms with engine-level gauges, and a lock-free ring buffer
// retaining the slowest and errored request traces.
//
// The package follows the discipline of internal/fault: the disabled
// state — the default, and the only state production code runs in
// unless explicitly armed — costs a single atomic pointer load per
// checkpoint. Tracing is armed explicitly (Activate from tests or the
// daemon's -obs flag), and the instrumentation is strictly passive: it
// reads phase statistics after the fact and never influences control
// flow, so an armed run produces byte-identical output to a disabled
// one (pinned by the conformance matrix's obs cells).
package obs

import (
	"context"
	"sync/atomic"
)

// Config is one armed observability configuration.
type Config struct {
	// Ring receives finished traces for slow/errored-trace retention;
	// nil means traces are built but not retained.
	Ring *Ring
}

// state is the active configuration; nil when observability is
// disabled (the production default). Checkpoints cost one atomic load
// when nil.
var state atomic.Pointer[Config]

// Enabled reports whether an observability configuration is armed.
// This is the hot-path checkpoint: one atomic pointer load.
func Enabled() bool { return state.Load() != nil }

// Current returns the armed configuration, or nil when disabled.
func Current() *Config { return state.Load() }

// Activate arms cfg process-wide and returns the function that
// disarms it again. Activations do not nest: the returned deactivate
// restores the disabled state, not the previous plan.
func Activate(cfg Config) func() {
	c := cfg
	state.Store(&c)
	return func() { state.Store(nil) }
}

// Offer hands a finished trace to the armed ring, if any. It is safe
// to call with a nil trace or while disabled.
func Offer(t *Trace) {
	if t == nil {
		return
	}
	if cfg := state.Load(); cfg != nil && cfg.Ring != nil {
		cfg.Ring.Offer(t)
	}
}

// spanKey carries the current *Span through a context.
type spanKey struct{}

// StartSpan opens a child span under the span carried by ctx and
// returns the derived context plus the new span. On the disabled
// path, or when ctx is nil or carries no trace, it returns (ctx, nil);
// every Span method is nil-safe, so call sites need no branches
// beyond what the compiler gets for free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !Enabled() || ctx == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	child := parent.child(name)
	return context.WithValue(ctx, spanKey{}, child), child
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

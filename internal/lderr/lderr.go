// Package lderr defines the error taxonomy of the change-detection
// pipeline: a small, closed set of error kinds that every public entry
// point (ladiff.Diff*, the HTTP handlers of internal/server, the CLI
// exit codes of cmd/ladiff) classifies failures into, so callers at
// any layer can make policy decisions — retry, reject, degrade, alert —
// without parsing error strings.
//
// The kinds, in the order a request can encounter them:
//
//	ErrParse    — an input document failed to parse (caller's data).
//	ErrLimit    — an input exceeded a configured size/depth/node guard.
//	ErrCanceled — the run's context was cancelled or timed out.
//	ErrDegraded — a work budget was exhausted and no cheaper fallback
//	              remained (budget exhaustion that *could* fall back is
//	              absorbed by the pipeline and surfaces as a degraded
//	              result, not an error).
//	ErrInternal — an invariant broke: a recovered panic or an internal
//	              self-check failure. Never the caller's fault.
//
// Errors are tagged by wrapping: Parse/Limit/Canceled/Degraded/Internal
// attach the kind sentinel while preserving the cause chain, so both
// errors.Is(err, lderr.ErrParse) and errors.Is(err, underlyingErr) hold.
// KindOf classifies any error, including untagged context errors.
package lderr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Kind sentinels. Use errors.Is(err, lderr.ErrX) to test, KindOf to
// classify.
var (
	ErrParse    = errors.New("ladiff: parse error")
	ErrLimit    = errors.New("ladiff: input limit exceeded")
	ErrCanceled = errors.New("ladiff: canceled")
	ErrDegraded = errors.New("ladiff: degraded")
	ErrInternal = errors.New("ladiff: internal error")
)

// Error is a kind-tagged error: Unwrap exposes both the kind sentinel
// and the cause, so errors.Is/As traverse both branches.
type Error struct {
	kind  error
	cause error
	// Stack holds the goroutine stack captured at the point a panic was
	// recovered; nil for ordinary errors.
	Stack []byte
}

// Error reports the cause's message; the kind is metadata, not prose.
func (e *Error) Error() string { return e.cause.Error() }

// Unwrap exposes the kind sentinel and the cause to errors.Is/As.
func (e *Error) Unwrap() []error { return []error{e.kind, e.cause} }

func tag(kind, cause error) error {
	if cause == nil {
		return nil
	}
	// Re-tagging with the same kind is a no-op; re-tagging with a
	// different kind keeps the outermost (closest to the caller) kind
	// while the inner one remains reachable through the chain.
	var e *Error
	if errors.As(cause, &e) && errors.Is(cause, kind) {
		return cause
	}
	return &Error{kind: kind, cause: cause}
}

// Parse tags err as an input parse failure.
func Parse(err error) error { return tag(ErrParse, err) }

// Limit tags err as an input-limit violation.
func Limit(err error) error { return tag(ErrLimit, err) }

// Canceled tags err as a cancellation/deadline abort.
func Canceled(err error) error { return tag(ErrCanceled, err) }

// Degraded tags err as a budget exhaustion with no fallback left.
func Degraded(err error) error { return tag(ErrDegraded, err) }

// Internal tags err as a broken invariant.
func Internal(err error) error { return tag(ErrInternal, err) }

// TagAs classifies err as kind unless it already carries a
// classification: a previously tagged kind survives, and untagged
// context cancellations stay classifiable as ErrCanceled. It is the
// deferred-classifier form of the tagging constructors:
//
//	defer func() { err = lderr.TagAs(lderr.ErrParse, err) }()
func TagAs(kind, err error) error {
	if err == nil || KindOf(err) != nil {
		return err
	}
	return tag(kind, err)
}

// Recovered converts a value recovered from a panic into an ErrInternal
// error carrying the panic message and the captured stack. Call it with
// the result of recover() and the enclosing component name:
//
//	defer func() {
//		if v := recover(); v != nil {
//			err = lderr.Recovered("match", v)
//		}
//	}()
func Recovered(component string, v any) error {
	cause, ok := v.(error)
	if !ok {
		cause = fmt.Errorf("%v", v)
	}
	return &Error{
		kind:  ErrInternal,
		cause: fmt.Errorf("%s: panic: %w", component, cause),
		Stack: debug.Stack(),
	}
}

// StackOf returns the panic stack captured with err, if any.
func StackOf(err error) []byte {
	var e *Error
	for errors.As(err, &e) {
		if e.Stack != nil {
			return e.Stack
		}
		err = e.cause
	}
	return nil
}

// KindOf classifies err: the first tagged kind present in the order
// Parse, Limit, Canceled, Degraded, Internal; ErrCanceled for untagged
// context cancellation/deadline errors; nil for anything unclassified
// (including nil).
func KindOf(err error) error {
	if err == nil {
		return nil
	}
	for _, kind := range []error{ErrParse, ErrLimit, ErrCanceled, ErrDegraded, ErrInternal} {
		if errors.Is(err, kind) {
			return kind
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ErrCanceled
	}
	return nil
}

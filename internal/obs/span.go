package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one span attribute. Values are int64 or string; attributes
// keep their insertion order so renderings are stable.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed region of a traced run. Spans form a tree under a
// Trace's root; children may be appended concurrently (a batch
// request's items run on several goroutines under one trace), so the
// child list and attributes are mutex-guarded. Spans
// are never on a hot path — one is created per engine phase or per
// label rank round, not per node.
//
// All methods are safe on a nil receiver, which is what every call
// site gets when observability is disabled or the context untraced.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

func (s *Span) child(name string) *Span {
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. The first End wins; later calls (and End on an
// already-finished trace root) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Int records an integer attribute.
func (s *Span) Int(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// Str records a string attribute.
func (s *Span) Str(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// SpanSnapshot is the immutable wire form of one span, used by both
// the /debug/traces JSON document and the -trace text rendering. The
// field names are part of the wire format and are pinned by golden
// tests; do not rename them.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	DurationUS int64          `json:"duration_us"`
	Attrs      []Attr         `json:"attrs,omitempty"`
	Spans      []SpanSnapshot `json:"spans,omitempty"`
}

// Snapshot captures the span subtree. A span that was never ended
// (an error path unwound past it) reports duration 0.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	snap := SpanSnapshot{Name: s.name}
	if !s.end.IsZero() {
		snap.DurationUS = s.end.Sub(s.start).Microseconds()
	}
	snap.Attrs = append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Spans = append(snap.Spans, c.Snapshot())
	}
	return snap
}

// RenderText renders one span tree as an indented text tree, the
// format `ladiff -trace` prints:
//
//	ladiff 1234µs
//	├─ parse 210µs old_nodes=52 new_nodes=54
//	└─ match 640µs r1_leaf_compares=557
//	   └─ round 17µs rank=0 labels=2
//
// Durations vary run to run; the structure and the attribute names
// are pinned by a golden test over a fixed snapshot.
func RenderText(snap SpanSnapshot) string {
	var b strings.Builder
	writeSpan(&b, snap, "", "", "")
	return b.String()
}

func writeSpan(b *strings.Builder, s SpanSnapshot, prefix, branch, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(branch)
	fmt.Fprintf(b, "%s %dµs", s.Name, s.DurationUS)
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%v", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for i, c := range s.Spans {
		if i == len(s.Spans)-1 {
			writeSpan(b, c, prefix+childPrefix, "└─ ", "   ")
		} else {
			writeSpan(b, c, prefix+childPrefix, "├─ ", "│  ")
		}
	}
}

// SortAttrs sorts a snapshot's attributes by key, recursively — used
// by tests that compare snapshots built from concurrent spans.
func SortAttrs(s *SpanSnapshot) {
	sort.Slice(s.Attrs, func(i, j int) bool { return s.Attrs[i].Key < s.Attrs[j].Key })
	for i := range s.Spans {
		SortAttrs(&s.Spans[i])
	}
}

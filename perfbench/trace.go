package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// rootSpan names the span that covers one whole op; every other span of
// the op nests inside it and shares its request id.
const rootSpan = "op"

// span is one recorded interval at a layer boundary. Spans of one op
// share req; parents are recovered from interval containment, which
// also links spans recorded on the server side of a loopback hop.
type span struct {
	name       string
	req        string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for one traced segment; they are only
// analysed after the segment ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span. A nil tracer records nothing, so the
// untraced path costs one nil check.
func (t *tracer) add(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// traceHandler returns h with a span named name around every request
// carrying an X-Request-Id, recorded into the tracer cur holds (none
// outside a traced segment). The benchmark sets the header and the
// router forwards it, so a routed request's spans share one id.
func traceHandler(name string, cur *atomic.Pointer[tracer], h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := cur.Load()
		id := r.Header.Get("X-Request-Id")
		if t == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, id, start, time.Now())
	})
}

// byReq returns the spans named name, keyed by request id.
func (t *tracer) byReq(name string) map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]span{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.req] = s
		}
	}
	return out
}

// addSpan records a span whose bounds are already epoch-relative.
func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// anatomy is the per-layer breakdown of a traced segment: each layer's
// self time (its spans minus the time their child spans cover), summed
// over the segment's ops.
type anatomy struct {
	ops     int
	opTotal time.Duration
	self    map[string]time.Duration
	spans   map[string]int
}

// analyse nests each op's spans by containment and sums self times per
// span name. The root's own self time is the part of the op no layer
// span explains.
func (t *tracer) analyse() anatomy {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := anatomy{self: map[string]time.Duration{}, spans: map[string]int{}}
	byReq := map[string][]int{}
	for i, s := range t.spans {
		byReq[s.req] = append(byReq[s.req], i)
	}
	for _, idx := range byReq {
		sort.Slice(idx, func(x, y int) bool {
			sx, sy := t.spans[idx[x]], t.spans[idx[y]]
			if sx.start != sy.start {
				return sx.start < sy.start
			}
			if sx.end != sy.end {
				return sx.end > sy.end
			}
			// Identical intervals: the root encloses, then record order.
			if (sx.name == rootSpan) != (sy.name == rootSpan) {
				return sx.name == rootSpan
			}
			return idx[x] < idx[y]
		})
		// covered[i] is the union of span i's direct children.
		covered := make(map[int]time.Duration, len(idx))
		lastEnd := make(map[int]time.Duration, len(idx))
		var stack []int
		for _, i := range idx {
			s := t.spans[i]
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end < s.end {
				// Overlaps its would-be parent without nesting: treat it
				// as a sibling of that parent.
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				from := s.start
				if le, ok := lastEnd[p]; ok && le > from {
					from = le
				}
				if s.end > from {
					covered[p] += s.end - from
					lastEnd[p] = s.end
				}
			}
			stack = append(stack, i)
		}
		for _, i := range idx {
			s := t.spans[i]
			d := s.end - s.start
			a.self[s.name] += d - covered[i]
			a.spans[s.name]++
			if s.name == rootSpan {
				a.ops++
				a.opTotal += d
			}
		}
	}
	return a
}

// perOp is a layer's self time per op, in ms.
func (a anatomy) perOp(name string) float64 {
	if a.ops == 0 {
		return 0
	}
	return ms(a.self[name]) / float64(a.ops)
}

// unexplainedPct is the share of op time no layer span covers.
func (a anatomy) unexplainedPct() float64 {
	if a.opTotal == 0 {
		return 0
	}
	return 100 * float64(a.self[rootSpan]) / float64(a.opTotal)
}

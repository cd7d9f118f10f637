// Package fault provides seeded, deterministic fault injection for the
// change-detection pipeline: named injection points threaded through the
// parser front ends, the matching and generation engines, and the
// server's I/O paths, each of which can be armed to return errors, panic,
// delay, truncate reads, or simulate cancellation.
//
// The package is built so that the disabled state — the only state
// production code ever runs in — costs a single atomic pointer load per
// checkpoint. Faults are armed explicitly (Activate from tests, or the
// daemon's testing-only -fault flag) and are driven by a seeded PRNG, so
// a chaos run is reproducible from its seed.
package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection checkpoint. The set is closed: every point
// is declared here, next to the component that hosts it.
type Point string

const (
	// Parser front ends (checked at Parse entry).
	ParseLatex Point = "parse.latex"
	ParseHTML  Point = "parse.html"
	ParseText  Point = "parse.text"
	ParseXML   Point = "parse.xml"
	ParseJSON  Point = "parse.json"
	ParseTree  Point = "parse.tree"
	// Engine phases.
	Match    Point = "match.run" // checked at Match/FastMatch entry
	Generate Point = "gen.run"   // checked at EditScript entry
	GenIndex Point = "gen.index" // checked when the generation index is built
	// Server I/O.
	ServerRead  Point = "server.read"  // wraps request-body reads
	ServerWrite Point = "server.write" // checked before response writes
	// Routing tier.
	RouteForward Point = "route.forward" // checked before each proxied attempt
	RouteProbe   Point = "route.probe"   // checked before each replica health probe
	// Version store.
	StoreIngest  Point = "store.ingest"  // checked at Store.Ingest entry
	StorePersist Point = "store.persist" // checked before each log append
	// Scheduling core.
	SchedAcquire Point = "sched.acquire" // checked at Core.Acquire entry
	JobPersist   Point = "job.persist"   // checked at JobStore.Submit entry
)

// Points lists every declared injection point, for spec validation.
var Points = []Point{
	ParseLatex, ParseHTML, ParseText, ParseXML, ParseJSON, ParseTree,
	Match, Generate, GenIndex, ServerRead, ServerWrite,
	RouteForward, RouteProbe,
	StoreIngest, StorePersist,
	SchedAcquire, JobPersist,
}

// Mode selects what an armed point does when its probability fires.
type Mode int

const (
	// ModeError makes Check return an injected error.
	ModeError Mode = iota
	// ModePanic makes Check panic with an InjectedPanic value.
	ModePanic
	// ModeDelay makes Check sleep Rule.Delay, then proceed normally.
	ModeDelay
	// ModeCancel makes Check return an error wrapping context.Canceled,
	// simulating a cancellation observed inside the component.
	ModeCancel
	// ModeSlowRead applies to Reader-wrapped streams: every read chunk
	// is preceded by Rule.Delay and capped at 1 byte — a slow-loris
	// producer on the server's own side of the pipe.
	ModeSlowRead
	// ModeTruncate applies to Reader-wrapped streams: the stream ends
	// with io.ErrUnexpectedEOF after Rule.Bytes bytes.
	ModeTruncate
)

var modeNames = map[string]Mode{
	"error": ModeError, "panic": ModePanic, "delay": ModeDelay,
	"cancel": ModeCancel, "slowread": ModeSlowRead, "truncate": ModeTruncate,
}

// ErrInjected is the base of every error the package injects;
// errors.Is(err, fault.ErrInjected) identifies a synthetic failure.
var ErrInjected = errors.New("fault: injected failure")

// InjectedPanic is the value ModePanic panics with, so recovery layers
// (and tests) can tell an injected panic from a real one.
type InjectedPanic struct{ Point Point }

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic at %s", p.Point)
}

// Rule arms one point.
type Rule struct {
	Point Point
	Mode  Mode
	// P is the per-hit firing probability in (0,1]; 0 means 1 (always).
	P float64
	// Delay is the sleep for ModeDelay/ModeSlowRead.
	Delay time.Duration
	// Bytes is the truncation offset for ModeTruncate.
	Bytes int64
}

// Plan is a full fault configuration: a seed plus the armed rules.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// state is the active plan; nil when injection is disabled (the
// production state). Checkpoints cost one atomic load when nil.
var state atomic.Pointer[planState]

type planState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point][]Rule
	hits  map[Point]*atomic.Int64
}

// Active reports whether any fault plan is armed.
func Active() bool { return state.Load() != nil }

// Activate arms the plan and returns a deactivation function. Plans do
// not stack: activating replaces any previous plan, and the returned
// function disarms injection entirely. Tests must deactivate before
// finishing (defer the returned func).
func Activate(p Plan) func() {
	ps := &planState{
		rng:   rand.New(rand.NewSource(p.Seed)),
		rules: make(map[Point][]Rule),
		hits:  make(map[Point]*atomic.Int64),
	}
	for _, r := range p.Rules {
		ps.rules[r.Point] = append(ps.rules[r.Point], r)
		if ps.hits[r.Point] == nil {
			ps.hits[r.Point] = &atomic.Int64{}
		}
	}
	state.Store(ps)
	return func() { state.Store(nil) }
}

// Hits returns how many faults each point has injected under the
// current plan — the coherence anchor for chaos assertions. Nil when no
// plan is armed.
func Hits() map[Point]int64 {
	ps := state.Load()
	if ps == nil {
		return nil
	}
	out := make(map[Point]int64, len(ps.hits))
	for pt, c := range ps.hits {
		out[pt] = c.Load()
	}
	return out
}

// fire decides (under the plan's seeded PRNG) whether a rule triggers.
func (ps *planState) fire(r Rule) bool {
	if r.P <= 0 || r.P >= 1 {
		return true
	}
	ps.mu.Lock()
	v := ps.rng.Float64()
	ps.mu.Unlock()
	return v < r.P
}

// Check is the generic checkpoint: a no-op (one atomic load) when
// injection is disabled. When the point is armed and fires, it returns
// an injected error, panics, sleeps, or returns a synthetic
// cancellation, per the matching rule's mode. Stream modes (SlowRead,
// Truncate) are ignored here; they act through Reader.
func Check(pt Point) error {
	ps := state.Load()
	if ps == nil {
		return nil
	}
	for _, r := range ps.rules[pt] {
		switch r.Mode {
		case ModeSlowRead, ModeTruncate:
			continue
		}
		if !ps.fire(r) {
			continue
		}
		ps.hits[pt].Add(1)
		switch r.Mode {
		case ModePanic:
			panic(InjectedPanic{Point: pt})
		case ModeDelay:
			time.Sleep(r.Delay)
		case ModeCancel:
			return fmt.Errorf("%w at %s: %w", ErrInjected, pt, context.Canceled)
		default: // ModeError
			return fmt.Errorf("%w at %s", ErrInjected, pt)
		}
	}
	return nil
}

// Reader wraps r with the stream faults armed for the point; it returns
// r unchanged (no allocation) when injection is disabled or the point
// has no stream rule.
func Reader(pt Point, r io.Reader) io.Reader {
	ps := state.Load()
	if ps == nil {
		return r
	}
	for _, rule := range ps.rules[pt] {
		switch rule.Mode {
		case ModeSlowRead, ModeTruncate:
			if ps.fire(rule) {
				ps.hits[pt].Add(1)
				return &faultReader{r: r, rule: rule}
			}
		}
	}
	return r
}

// faultReader applies one stream rule to an underlying reader.
type faultReader struct {
	r    io.Reader
	rule Rule
	read int64
}

func (f *faultReader) Read(p []byte) (int, error) {
	switch f.rule.Mode {
	case ModeSlowRead:
		time.Sleep(f.rule.Delay)
		if len(p) > 1 {
			p = p[:1]
		}
	case ModeTruncate:
		if f.read >= f.rule.Bytes {
			return 0, fmt.Errorf("%w: %w", ErrInjected, io.ErrUnexpectedEOF)
		}
		if max := f.rule.Bytes - f.read; int64(len(p)) > max {
			p = p[:max]
		}
	}
	n, err := f.r.Read(p)
	f.read += int64(n)
	return n, err
}

// ParseSpec parses the textual plan syntax used by the daemon's
// testing-only -fault flag:
//
//	point:mode[:p=P][:delay=D][:bytes=N][,point:mode...][;seed=S]
//
// e.g. "match.run:panic:p=0.2,server.read:slowread:delay=5ms;seed=7".
func ParseSpec(spec string) (Plan, error) {
	var plan Plan
	body := spec
	if i := strings.IndexByte(spec, ';'); i >= 0 {
		body = spec[:i]
		for _, kv := range strings.Split(spec[i+1:], ";") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k != "seed" {
				return plan, fmt.Errorf("fault: bad plan option %q (want seed=N)", kv)
			}
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return plan, fmt.Errorf("fault: bad seed %q: %w", v, err)
			}
			plan.Seed = seed
		}
	}
	for _, entry := range strings.Split(body, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ":")
		if len(fields) < 2 {
			return plan, fmt.Errorf("fault: bad rule %q (want point:mode[:opts])", entry)
		}
		r := Rule{Point: Point(fields[0])}
		if !validPoint(r.Point) {
			return plan, fmt.Errorf("fault: unknown point %q (known: %v)", fields[0], Points)
		}
		mode, ok := modeNames[fields[1]]
		if !ok {
			return plan, fmt.Errorf("fault: unknown mode %q", fields[1])
		}
		r.Mode = mode
		for _, opt := range fields[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return plan, fmt.Errorf("fault: bad rule option %q (want k=v)", opt)
			}
			var err error
			switch k {
			case "p":
				r.P, err = strconv.ParseFloat(v, 64)
			case "delay":
				r.Delay, err = time.ParseDuration(v)
			case "bytes":
				r.Bytes, err = strconv.ParseInt(v, 10, 64)
			default:
				err = fmt.Errorf("unknown option %q", k)
			}
			if err != nil {
				return plan, fmt.Errorf("fault: rule %q: %w", entry, err)
			}
		}
		plan.Rules = append(plan.Rules, r)
	}
	if len(plan.Rules) == 0 {
		return plan, fmt.Errorf("fault: empty plan %q", spec)
	}
	return plan, nil
}

func validPoint(pt Point) bool {
	for _, p := range Points {
		if p == pt {
			return true
		}
	}
	return false
}

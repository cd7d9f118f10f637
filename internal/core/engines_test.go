package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// enginePropertyClasses are the workload classes the per-engine
// property battery runs on: every battery class small enough that the
// optimal-mapping engines stay fast (wide-flat and sparse-1pct are
// covered for the default engine by the golden battery instead).
func enginePropertyClasses() []gen.Class {
	var out []gen.Class
	for _, c := range gen.Classes() {
		switch c.Name {
		case "wide-flat", "sparse-1pct":
			continue
		}
		out = append(out, c)
	}
	return out
}

// TestEngineProperties runs every matching engine over the
// property classes and checks the engine contract: the matching is a
// valid bijection (injective both ways, nodes exist, labels agree),
// the roots are matched to each other, and the full pipeline's script
// replays the old tree into one isomorphic to the new — the §3
// correctness guarantee that must hold for ANY matching, optimal or
// not.
func TestEngineProperties(t *testing.T) {
	for _, c := range enginePropertyClasses() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			dp := c.Doc
			dp.Seed = 701
			doc := gen.Document(dp)
			pert, err := gen.Perturb(doc, c.Pert(702))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range core.EngineNames() {
				matcher, ok := core.MatcherByName(name)
				if !ok {
					t.Fatalf("engine %q has no Matcher value", name)
				}
				m, reasons, err := core.MatchWithFallback(doc, pert.New, matcher, match.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(reasons) != 0 {
					t.Fatalf("%s: unbudgeted run degraded: %v", name, reasons)
				}
				if err := m.Validate(doc, pert.New); err != nil {
					t.Fatalf("%s: invalid matching: %v", name, err)
				}
				// Generated documents share the root label, so every
				// engine must pair the roots — FastMatch/Match by the
				// equal-label root rule, the optimal engines because an
				// optimal mapping never leaves equal roots unmatched.
				if got, ok := m.ToNew(doc.Root().ID()); !ok || got != pert.New.Root().ID() {
					t.Fatalf("%s: root not matched to root (got %v, %v)", name, got, ok)
				}
				res, err := core.Diff(doc, pert.New, core.Options{Matcher: matcher})
				if err != nil {
					t.Fatalf("%s: diff: %v", name, err)
				}
				// ApplyToOld is the replay oracle: it re-runs the script
				// on a fresh clone and verifies isomorphism with New.
				if _, err := res.ApplyToOld(); err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
				if err := res.Conforms(m); err != nil {
					t.Fatalf("%s: script does not conform to the matching: %v", name, err)
				}
			}
		})
	}
}

// TestEngineBudgetFallback pins the fallback ladder per engine: every
// non-fast engine starved to a work budget of 1 must degrade to an
// unbudgeted FastMatch run — valid matching, one reason naming the
// engine that gave up — while FastMatch itself, with nothing cheaper
// left, must fail hard with the degraded error kind.
func TestEngineBudgetFallback(t *testing.T) {
	c := gen.Classes()[0]
	dp := c.Doc
	dp.Seed = 711
	doc := gen.Document(dp)
	pert, err := gen.Perturb(doc, c.Pert(712))
	if err != nil {
		t.Fatal(err)
	}
	starved := match.Options{WorkBudget: 1}

	for _, name := range core.EngineNames() {
		matcher, _ := core.MatcherByName(name)
		m, reasons, err := core.MatchWithFallback(doc, pert.New, matcher, starved)
		if name == "fast" {
			if err == nil || !errors.Is(err, lderr.ErrDegraded) {
				t.Fatalf("fast: starved budget err = %v, want ErrDegraded kind", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: starved budget should degrade, got error: %v", name, err)
		}
		if len(reasons) != 1 {
			t.Fatalf("%s: reasons = %v, want exactly one", name, reasons)
		}
		// SimpleMatcher keeps the paper's name "match" in reasons; the
		// other engines report under their own names.
		wantName := name
		if name == "simple" {
			wantName = "match"
		}
		if !strings.Contains(reasons[0], wantName+" exceeded work budget") ||
			!strings.Contains(reasons[0], "fell back to fastmatch") {
			t.Errorf("%s: reason %q does not name the %s→fastmatch ladder", name, reasons[0], wantName)
		}
		if err := m.Validate(doc, pert.New); err != nil {
			t.Errorf("%s: fallback matching invalid: %v", name, err)
		}
	}
}

// TestZSTableBoundFallback: with no work budget, a zs pair whose
// tree-distance table would pass 2^26 cells (two 8193-node stars) must
// degrade to FastMatch before allocating it, with a reason naming the
// bound rather than a work budget of 0.
func TestZSTableBoundFallback(t *testing.T) {
	star := func(edit int) *tree.Tree {
		tr := tree.NewWithRoot("r", "")
		for i := 0; i < 8192; i++ {
			v := fmt.Sprint("sentence ", i)
			if i == edit {
				v += " edited"
			}
			tr.AppendChild(tr.Root(), "s", v)
		}
		return tr
	}
	old, new := star(-1), star(4000)
	m, reasons, err := core.MatchWithFallback(old, new, core.ZSMatcher, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "cell bound") ||
		!strings.Contains(reasons[0], fmt.Sprint(1<<26)) || !strings.Contains(reasons[0], "fell back to fastmatch") {
		t.Fatalf("reasons = %q, want one naming the 2^26-cell table bound", reasons)
	}
	if err := m.Validate(old, new); err != nil {
		t.Fatalf("fallback matching invalid: %v", err)
	}
}

// TestZSMatcherHonoursDeadline: the zs engine polls Options.Ctx, so a
// pair that needs well over half a second (a zigzag spine, which stays
// in left order) fails with DeadlineExceeded soon after a 50 ms
// deadline instead of running to completion.
func TestZSMatcherHonoursDeadline(t *testing.T) {
	zig := tree.NewWithRoot("s", "")
	spine := zig.Root()
	for d := 0; d < 120; d++ {
		if d%2 == 0 {
			zig.AppendChild(spine, "l", fmt.Sprint(d))
			spine = zig.AppendChild(spine, "s", "")
		} else {
			next := zig.AppendChild(spine, "s", "")
			zig.AppendChild(spine, "l", fmt.Sprint(d))
			spine = next
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := core.DiffContext(ctx, zig, zig.Clone(), core.Options{Matcher: core.ZSMatcher})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, lderr.ErrCanceled) {
		t.Fatalf("err = %v, want a cancelled DeadlineExceeded", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("aborted after %v, want soon after the 50ms deadline", elapsed)
	}
}

package store

import (
	"context"
	"errors"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// ingestTree renders t in the generic "tree" wire format and commits it.
func ingestTree(t *testing.T, s *Store, key string, doc *tree.Tree) IngestResult {
	t.Helper()
	res, err := s.Ingest(context.Background(), key, "tree", doc.String())
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return res
}

// versionChain builds steps+1 successive versions of a workload-class
// document: the generated base plus steps perturbations, each applied
// to its predecessor so the chain drifts like a real document history.
func versionChain(t *testing.T, class gen.Class, steps int) []*tree.Tree {
	t.Helper()
	chain := []*tree.Tree{gen.Document(class.Doc)}
	for i := 0; i < steps; i++ {
		p, err := gen.Perturb(chain[len(chain)-1], class.Pert(int64(i+1)))
		if err != nil {
			t.Fatalf("perturb step %d: %v", i, err)
		}
		chain = append(chain, p.New)
	}
	return chain
}

// TestIngestCheckoutAllClasses is the subsystem's core acceptance
// criterion: for every workload class, every committed version checks
// out to a tree whose fingerprint matches what was ingested.
func TestIngestCheckoutAllClasses(t *testing.T) {
	for _, class := range gen.Classes() {
		class := class
		t.Run(class.Name, func(t *testing.T) {
			t.Parallel()
			steps := 5
			if class.Name == "sparse-1pct" {
				steps = 2 // the big document; depth is covered elsewhere
			}
			s := New(Config{CheckpointEvery: 3})
			chain := versionChain(t, class, steps)
			var fps []string
			for _, doc := range chain {
				res := ingestTree(t, s, class.Name, doc)
				fps = append(fps, res.Fingerprint)
			}
			for v := 1; v <= len(chain); v++ {
				got, info, err := s.Checkout(context.Background(), class.Name, v)
				if err != nil {
					t.Fatalf("checkout v%d: %v", v, err)
				}
				if info.Fingerprint != fps[v-1] {
					t.Fatalf("v%d: fingerprint %s, ingested %s", v, info.Fingerprint, fps[v-1])
				}
				if got.Fingerprints().Root().String() != fps[v-1] {
					t.Fatalf("v%d: reconstructed tree fingerprint does not match its own record", v)
				}
				// Independent check: parse the version's source ourselves
				// and compare structures, not just hashes.
				want, err := tree.Parse(chain[v-1].String())
				if err != nil {
					t.Fatal(err)
				}
				if !tree.Isomorphic(got, want) {
					t.Fatalf("v%d: checkout not isomorphic to ingested document", v)
				}
			}
		})
	}
}

// TestNoopIngest: re-sending the head's exact content creates no
// version and reports the existing one.
func TestNoopIngest(t *testing.T) {
	s := New(Config{})
	doc := gen.Document(gen.DocParams{})
	first := ingestTree(t, s, "k", doc)
	if first.Noop || first.Version != 1 {
		t.Fatalf("first ingest: %+v", first)
	}
	again := ingestTree(t, s, "k", doc)
	if !again.Noop || again.Version != 1 {
		t.Fatalf("re-ingest: noop=%v version=%d, want noop at v1", again.Noop, again.Version)
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("noop changed fingerprint: %s vs %s", again.Fingerprint, first.Fingerprint)
	}
	st := s.Stats()
	if st.VersionsTotal != 1 || st.NoopIngestsTotal != 1 || st.IngestsTotal != 2 {
		t.Fatalf("stats after noop: %+v", st)
	}
}

// TestFormatPinned: a document's format is fixed at creation; ingesting
// the same key in another format is a conflict, not a silent re-parse.
func TestFormatPinned(t *testing.T) {
	s := New(Config{})
	if _, err := s.Ingest(context.Background(), "k", "text", "One sentence here."); err != nil {
		t.Fatal(err)
	}
	_, err := s.Ingest(context.Background(), "k", "html", "<p>One sentence here.</p>")
	if !errors.Is(err, ErrFormatMismatch) {
		t.Fatalf("cross-format ingest: %v, want ErrFormatMismatch", err)
	}
	if f, _ := s.Format("k"); f != "text" {
		t.Fatalf("format drifted to %q", f)
	}
}

// TestCheckpointIntervalEquivalence: the checkpoint interval is purely a
// performance knob — every interval (including none) reconstructs the
// identical versions.
func TestCheckpointIntervalEquivalence(t *testing.T) {
	chain := versionChain(t, gen.Classes()[0], 8)
	var want []string
	for _, every := range []int{0, 1, 2, 5, -1} {
		s := New(Config{CheckpointEvery: every})
		for _, doc := range chain {
			ingestTree(t, s, "k", doc)
		}
		var got []string
		for v := 1; v <= len(chain); v++ {
			_, info, err := s.Checkout(context.Background(), "k", v)
			if err != nil {
				t.Fatalf("CheckpointEvery=%d checkout v%d: %v", every, v, err)
			}
			got = append(got, info.Fingerprint)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CheckpointEvery=%d: v%d fingerprint diverged", every, i+1)
			}
		}
	}
}

// TestCheckoutReplayDepth pins what checkpoints buy: a checkout replays
// one inverse script per version between it and the nearest snapshot at
// or above it. One 65-version chain (a set-A document of the
// experiments harness, then four perturbations a step) goes into a plain
// store, whose head is its only snapshot, and into one that snapshots
// every 8 versions. A checkout at depth d below the head replays d
// scripts in the plain store, and in the other one the distance up to
// the next multiple of 8 or to the head.
func TestCheckoutReplayDepth(t *testing.T) {
	ctx := context.Background()
	plain := New(Config{CheckpointEvery: -1})
	defer plain.Close()
	checkpointed := New(Config{CheckpointEvery: 8})
	defer checkpointed.Close()
	doc := gen.Document(gen.DocParams{Seed: 101, Sections: 4, MinParagraphs: 3, MaxParagraphs: 5,
		MinSentences: 4, MaxSentences: 8, Vocabulary: 3000})
	const head = 65
	for i := 0; ; i++ {
		ingestTree(t, plain, "doc", doc)
		ingestTree(t, checkpointed, "doc", doc)
		if i == head-1 {
			break
		}
		p, err := gen.Perturb(doc, gen.Mix(101000+int64(i), 4))
		if err != nil {
			t.Fatalf("perturb step %d: %v", i, err)
		}
		doc = p.New
	}
	for _, s := range []*Store{plain, checkpointed} {
		// A rebase would add snapshots of its own.
		if st := s.Stats(); st.VersionsTotal != head || st.RebasesTotal != 0 {
			t.Fatalf("%d versions, %d rebases; want %d and 0", st.VersionsTotal, st.RebasesTotal, head)
		}
	}
	replays := func(s *Store, v int) int64 {
		before := s.Stats().CheckoutReplayOps
		if _, _, err := s.Checkout(ctx, "doc", v); err != nil {
			t.Fatalf("checkout v%d: %v", v, err)
		}
		return s.Stats().CheckoutReplayOps - before
	}
	for _, c := range []struct {
		depth               int
		plain, checkpointed int64
	}{
		{1, 1, 0}, {4, 4, 3}, {8, 8, 7}, {16, 16, 7}, {32, 32, 7}, {64, 64, 7},
	} {
		v := head - c.depth
		if got := replays(plain, v); got != c.plain {
			t.Errorf("plain store, v%d (depth %d): %d replays, want %d", v, c.depth, got, c.plain)
		}
		if got := replays(checkpointed, v); got != c.checkpointed {
			t.Errorf("checkpointed store, v%d (depth %d): %d replays, want %d", v, c.depth, got, c.checkpointed)
		}
	}
}

// TestComposeDiff: a diff composed from the stored chain transforms the
// from-version into the to-version exactly, in both directions.
func TestComposeDiff(t *testing.T) {
	s := New(Config{CheckpointEvery: 2})
	chain := versionChain(t, gen.Classes()[0], 6)
	for _, doc := range chain {
		ingestTree(t, s, "k", doc)
	}
	ctx := context.Background()
	for _, pair := range [][2]int{{1, 4}, {2, 7}, {3, 3}, {6, 2}, {7, 1}} {
		from, to := pair[0], pair[1]
		script, ok, err := s.ComposeDiff("k", from, to)
		if err != nil || !ok {
			t.Fatalf("compose %d->%d: ok=%v err=%v", from, to, ok, err)
		}
		base, _, err := s.Checkout(ctx, "k", from)
		if err != nil {
			t.Fatal(err)
		}
		got, err := script.ApplyTo(base)
		if err != nil {
			t.Fatalf("applying composed %d->%d: %v", from, to, err)
		}
		_, wantInfo, err := s.Checkout(ctx, "k", to)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprints().Root().String() != wantInfo.Fingerprint {
			t.Fatalf("composed %d->%d does not produce v%d", from, to, to)
		}
	}
	if _, _, err := s.ComposeDiff("k", 0, 3); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("compose from v0: %v", err)
	}
}

// TestRediffVersions: the re-diff path produces a script that transforms
// old into new, regardless of chain shape.
func TestRediffVersions(t *testing.T) {
	s := New(Config{})
	chain := versionChain(t, gen.Classes()[2], 4)
	for _, doc := range chain {
		ingestTree(t, s, "k", doc)
	}
	res, err := s.RediffVersions(context.Background(), "k", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.ApplyToOld()
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := s.Checkout(context.Background(), "k", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprints().Root().String() != want.Fingerprint {
		t.Fatal("rediff script does not produce the target version")
	}
}

// TestRebase: an ingest whose diff wraps the roots (the §6 wrapped-roots
// escape hatch for incompatible structures) starts a fresh chain base.
// History survives — old versions still check out — but script
// composition across the boundary is refused.
func TestRebase(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  p\n    s \"alpha beta\"\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  p\n    s \"alpha beta gamma\"\n"); err != nil {
		t.Fatal(err)
	}
	// A different root label forces the wrapped-roots path.
	res, err := s.Ingest(ctx, "k", "tree", "manifest\n  entry \"alpha\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 3 {
		t.Fatalf("rebase version: %d", res.Version)
	}
	vers, err := s.Versions("k")
	if err != nil {
		t.Fatal(err)
	}
	if !vers[2].Rebase || vers[1].Rebase || vers[0].Rebase {
		t.Fatalf("rebase flags wrong: %+v", vers)
	}
	if s.Stats().RebasesTotal != 1 {
		t.Fatalf("rebase counter: %+v", s.Stats())
	}
	for v := 1; v <= 3; v++ {
		got, info, err := s.Checkout(ctx, "k", v)
		if err != nil {
			t.Fatalf("checkout v%d across rebase: %v", v, err)
		}
		if got.Fingerprints().Root().String() != info.Fingerprint {
			t.Fatalf("v%d fingerprint mismatch after rebase", v)
		}
	}
	if _, ok, err := s.ComposeDiff("k", 1, 3); err != nil || ok {
		t.Fatalf("compose across rebase: ok=%v err=%v, want ok=false", ok, err)
	}
	if _, ok, err := s.ComposeDiff("k", 1, 2); err != nil || !ok {
		t.Fatalf("compose before rebase: ok=%v err=%v, want ok", ok, err)
	}
	// Re-diffing across the boundary still works: it checks both
	// versions out and matches them fresh.
	if _, err := s.RediffVersions(ctx, "k", 1, 3); err != nil {
		t.Fatalf("rediff across rebase: %v", err)
	}
}

// TestErrors covers the sentinel taxonomy.
func TestErrors(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	if _, _, err := s.Checkout(ctx, "nope", 1); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: %v", err)
	}
	if _, err := s.Ingest(ctx, "k", "carrier-pigeon", "x"); lderr.KindOf(err) != lderr.ErrParse {
		t.Fatalf("bad format: %v", err)
	}
	if _, err := s.Ingest(ctx, "k", "json", "{broken"); lderr.KindOf(err) != lderr.ErrParse {
		t.Fatalf("parse failure: %v", err)
	}
	if _, err := s.Ingest(ctx, "k", "text", "Valid sentence."); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Checkout(ctx, "k", 2); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unknown version: %v", err)
	}
	if _, _, err := s.Checkout(ctx, "k", 0); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("version 0: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, "k", "text", "After close."); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
}

// TestLimitsEnforced: the store enforces its configured parse limits on
// ingest (lderr.ErrLimit, the 413 path).
func TestLimitsEnforced(t *testing.T) {
	s := New(Config{Limits: tree.Limits{MaxNodes: 4}})
	_, err := s.Ingest(context.Background(), "k", "text",
		"One sentence. Two sentences. Three sentences. Four sentences. Five.")
	if lderr.KindOf(err) != lderr.ErrLimit {
		t.Fatalf("over-limit ingest: %v", err)
	}
}

// TestSharedSnapshots: documents converging on identical content share
// one snapshot tree keyed by fingerprint.
func TestSharedSnapshots(t *testing.T) {
	s := New(Config{CheckpointEvery: 1})
	chain := versionChain(t, gen.Classes()[0], 1)
	for _, key := range []string{"a", "b"} {
		// Both documents walk the same history, so their v2 checkpoint
		// snapshots have equal content.
		for _, doc := range chain {
			ingestTree(t, s, key, doc)
		}
	}
	if shared := s.Stats().SharedSnapshots; shared < 1 {
		t.Fatalf("shared snapshots: %d, want >= 1", shared)
	}
	// Both documents still check out correctly — sharing is invisible.
	for _, key := range []string{"a", "b"} {
		got, info, err := s.Checkout(context.Background(), key, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprints().Root().String() != info.Fingerprint {
			t.Fatalf("%s: shared snapshot corrupted checkout", key)
		}
	}
}

package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ladiff/internal/fault"
	"ladiff/internal/gen"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "store.log")
}

// reopenAndVerify opens the log and checks that every recorded version
// of every key reconstructs to its recorded fingerprint.
func reopenAndVerify(t *testing.T, path string, cfg Config, want map[string][]string) *Store {
	t.Helper()
	s, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	verifyVersions(t, s, want)
	return s
}

// verifyVersions checks that s holds exactly the versions in want, each
// key's fingerprints in version order, and that every one checks out to
// a tree with its recorded fingerprint.
func verifyVersions(t *testing.T, s *Store, want map[string][]string) {
	t.Helper()
	for key, fps := range want {
		vers, err := s.Versions(key)
		if err != nil {
			t.Fatalf("versions of %s: %v", key, err)
		}
		if len(vers) != len(fps) {
			t.Fatalf("%s: %d versions, want %d", key, len(vers), len(fps))
		}
		for v := 1; v <= len(fps); v++ {
			got, info, err := s.Checkout(context.Background(), key, v)
			if err != nil {
				t.Fatalf("checkout %s v%d: %v", key, v, err)
			}
			if info.Fingerprint != fps[v-1] {
				t.Fatalf("%s v%d: checkout fingerprint %s, ingested %s", key, v, info.Fingerprint, fps[v-1])
			}
			if got.Fingerprints().Root().String() != fps[v-1] {
				t.Fatalf("%s v%d: checked-out tree does not hash to its record", key, v)
			}
		}
	}
}

// TestPersistRoundTrip: close and reopen restores every version of
// every document, across formats and including a rebase boundary.
func TestPersistRoundTrip(t *testing.T) {
	path := tempLog(t)
	cfg := Config{CheckpointEvery: 2}
	s, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := map[string][]string{}

	// A generated chain in the tree format.
	for _, doc := range versionChain(t, gen.Classes()[0], 4) {
		res := ingestTree(t, s, "gen", doc)
		want["gen"] = append(want["gen"], res.Fingerprint)
	}
	// A text document.
	for _, src := range []string{
		"First sentence here. Second sentence here.",
		"First sentence here. Second sentence revised.",
	} {
		res, err := s.Ingest(ctx, "notes", "text", src)
		if err != nil {
			t.Fatal(err)
		}
		want["notes"] = append(want["notes"], res.Fingerprint)
	}
	// A JSON document crossing a rebase (array root to object root
	// wraps the diff roots).
	for _, src := range []string{`["a","b"]`, `["a","b","c"]`, `{"k":"v"}`} {
		res, err := s.Ingest(ctx, "config", "json", src)
		if err != nil {
			t.Fatal(err)
		}
		want["config"] = append(want["config"], res.Fingerprint)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := reopenAndVerify(t, path, cfg, want)
	// The replayed store keeps working: the chain continues in the
	// replayed identifier space.
	res, err := s2.Ingest(ctx, "notes", "text", "First sentence here. Third thought entirely.")
	if err != nil {
		t.Fatalf("ingest after replay: %v", err)
	}
	want["notes"] = append(want["notes"], res.Fingerprint)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndVerify(t, path, cfg, want).Close()
}

// TestPersistCrashRecovery: a log with a torn final record (the shape a
// crash mid-append leaves) reopens cleanly with every complete version
// intact, and the reopened store accepts new ingests.
func TestPersistCrashRecovery(t *testing.T) {
	for _, tear := range []struct {
		name string
		tear func([]byte) []byte
	}{
		{"half-record", func(b []byte) []byte { return b[:len(b)-len(b)/4] }},
		{"no-newline", func(b []byte) []byte { return b[:len(b)-1] }},
		{"garbage-tail", func(b []byte) []byte { return append(b, []byte("{\"kind\":\"del")...) }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := tempLog(t)
			cfg := Config{}
			s, err := Open(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]string{}
			for _, doc := range versionChain(t, gen.Classes()[0], 3) {
				res := ingestTree(t, s, "k", doc)
				want["k"] = append(want["k"], res.Fingerprint)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := tear.tear(data)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			// How many complete versions survive the tear: count intact
			// lines (crash recovery truncates the torn tail, losing at
			// most the record being appended).
			intact := strings.Count(string(torn), "\n")
			want["k"] = want["k"][:intact]

			s2 := reopenAndVerify(t, path, cfg, want)
			res, err := s2.Ingest(context.Background(), "k", "tree", "doc\n  p\n    s \"fresh after crash\"\n")
			if err != nil {
				t.Fatalf("ingest after crash recovery: %v", err)
			}
			want["k"] = append(want["k"], res.Fingerprint)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			reopenAndVerify(t, path, cfg, want).Close()
		})
	}
}

// TestPersistMidFileCorruption: corruption anywhere but the tail is not
// a crash artifact — reopening refuses rather than silently dropping
// history.
func TestPersistMidFileCorruption(t *testing.T) {
	path := tempLog(t)
	s, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range versionChain(t, gen.Classes()[0], 2) {
		ingestTree(t, s, "k", doc)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = "{\"kind\":\"mangled\"}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil {
		t.Fatal("reopening a mid-file-corrupted log succeeded; want an error")
	}
}

// TestPersistFaultAbort: a fault at the persistence point fails the
// ingest before any state changes — the chain, the log, and every
// checkout stay consistent, and the ingest succeeds once the fault
// clears.
func TestPersistFaultAbort(t *testing.T) {
	path := tempLog(t)
	cfg := Config{CheckpointEvery: 2}
	s, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := map[string][]string{}
	chain := versionChain(t, gen.Classes()[0], 4)
	for _, doc := range chain[:3] {
		res := ingestTree(t, s, "k", doc)
		want["k"] = append(want["k"], res.Fingerprint)
	}

	deactivate := fault.Activate(fault.Plan{Rules: []fault.Rule{
		{Point: fault.StorePersist, Mode: fault.ModeError},
	}})
	if _, err := s.Ingest(ctx, "k", "tree", chain[3].String()); err == nil {
		deactivate()
		t.Fatal("ingest under persist fault succeeded")
	}
	deactivate()

	// Nothing moved: same versions, every checkout verifies.
	vers, err := s.Versions("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 3 {
		t.Fatalf("aborted ingest left %d versions, want 3", len(vers))
	}
	for v := 1; v <= 3; v++ {
		if _, _, err := s.Checkout(ctx, "k", v); err != nil {
			t.Fatalf("checkout v%d after aborted ingest: %v", v, err)
		}
	}
	// The fault cleared; the same ingest lands as v4.
	res, err := s.Ingest(ctx, "k", "tree", chain[3].String())
	if err != nil {
		t.Fatalf("ingest after fault cleared: %v", err)
	}
	if res.Version != 4 {
		t.Fatalf("post-fault ingest version %d, want 4", res.Version)
	}
	want["k"] = append(want["k"], res.Fingerprint)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndVerify(t, path, cfg, want).Close()
}

// TestPersistInMemoryStoreHasNoLog: New() never touches disk and Close
// is clean.
func TestPersistInMemoryStoreHasNoLog(t *testing.T) {
	s := New(Config{})
	ingestTree(t, s, "k", gen.Document(gen.DocParams{}))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogBrokenLatch: a partial write (bytes hit the file, then the
// write fails) poisons the log — later ingests refuse with ErrLogBroken
// instead of appending after a half-record.
func TestLogBrokenLatch(t *testing.T) {
	path := tempLog(t)
	s, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestTree(t, s, "k", gen.Document(gen.DocParams{}))

	// Simulate the partial write by latching the writer directly: the
	// OS-level failure modes (ENOSPC mid-write) are not injectable
	// portably, but the latch they set is.
	s.log.mu.Lock()
	s.log.broken = true
	s.log.mu.Unlock()

	_, err = s.Ingest(context.Background(), "k", "tree", "doc\n  p\n    s \"next\"\n")
	if !errors.Is(err, ErrLogBroken) {
		t.Fatalf("ingest on broken log: %v, want ErrLogBroken", err)
	}
}

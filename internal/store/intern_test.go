package store

import (
	"context"
	"testing"
)

// internX is a small text document whose paragraphs anchor the edits
// the interning tests make around it.
const internX = "Alpha beta gamma.\n\nDelta epsilon zeta. Eta theta iota.\n\nKappa lambda mu."

// ingestAll ingests each (key, source) step as a text document and
// returns the fingerprint of every version, per key, in version order.
func ingestAll(t *testing.T, s *Store, steps [][2]string) map[string][]string {
	t.Helper()
	fps := map[string][]string{}
	for _, st := range steps {
		res, err := s.Ingest(context.Background(), st[0], "text", st[1])
		if err != nil {
			t.Fatalf("ingest %s: %v", st[0], err)
		}
		if res.Noop || res.Version != len(fps[st[0]])+1 {
			t.Fatalf("ingest %s: version %d (noop %v), want a new version %d",
				st[0], res.Version, res.Noop, len(fps[st[0]])+1)
		}
		fps[st[0]] = append(fps[st[0]], res.Fingerprint)
	}
	return fps
}

// TestInternNeedsEqualIDs: a checkpoint is shared with a retained tree of
// equal content only when that tree also has the same node IDs, since
// checkouts replay ID-addressed inverse scripts on the shared snapshot.
// Each case holds one checkpoint whose content is retained elsewhere
// under other IDs; every version must still check out, live and after
// the log is replayed.
func TestInternNeedsEqualIDs(t *testing.T) {
	cases := []struct {
		name  string
		steps [][2]string
	}{{
		// Two documents reach X at v2 along different edits, so their
		// v2 trees agree in content but not in IDs.
		name: "two documents",
		steps: [][2]string{
			{"a", "Alpha beta gamma.\n\nDelta epsilon zeta. Eta theta iota. Extra sentence one here.\n\nKappa lambda mu."},
			{"a", internX},
			{"a", internX + "\n\nA tail for a."},
			{"b", "Fresh opening line.\n\n" + internX},
			{"b", internX},
			{"b", internX + "\n\nA tail for b."},
		},
	}, {
		// One document returns to X at v4 after dropping a sentence at
		// v3: the sentence comes back under a new ID, so v4 has v2's
		// content but not its IDs.
		name: "return to earlier content",
		steps: [][2]string{
			{"c", "Fresh opening line.\n\n" + internX},
			{"c", internX},
			{"c", "Alpha beta gamma.\n\nDelta epsilon zeta.\n\nKappa lambda mu."},
			{"c", internX},
			{"c", internX + "\n\nA tail for c."},
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := tempLog(t)
			cfg := Config{CheckpointEvery: 2}
			s, err := Open(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fps := ingestAll(t, s, c.steps)
			t.Run("live", func(t *testing.T) { verifyVersions(t, s, fps) })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			t.Run("replay", func(t *testing.T) { reopenAndVerify(t, path, cfg, fps).Close() })
		})
	}
}

package store

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// sparsePage returns the text source of one version of a ~40-node page
// (4 paragraphs of 9 sentences) under a long edit history: version i
// inserts one fresh sentence, deletes the oldest of another paragraph
// and rewrites one word of a third. Every insert takes a new node ID and
// every delete leaves a hole, so a head kept by deltas alone would reach
// an ID bound far above its size.
func sparsePage(paras [][]string, i int) string {
	if i > 0 {
		ins, del, upd := paras[i%4], i%4+1, paras[(i+2)%4]
		paras[i%4] = append(ins, fmt.Sprintf("Fresh sentence %d covers item %d of the page.", i, i))
		paras[del%4] = paras[del%4][1:]
		j := i % len(upd)
		words := strings.Fields(upd[j])
		words[len(words)-2] = fmt.Sprintf("v%d", i)
		upd[j] = strings.Join(words, " ")
	}
	var b strings.Builder
	for _, p := range paras {
		b.WriteString(strings.Join(p, " "))
		b.WriteString("\n\n")
	}
	return b.String()
}

// TestSparseHistoryCompaction is the battery for the store's ID-sparsity
// bound: 2000 versions of a small page whose edits keep allocating IDs.
// Every head stays within IDBound ≤ 2·Len + 64, by compaction rebases
// that behave like every other rebase: checkouts on both sides verify,
// ComposeDiff refuses to cross them while RediffVersions works, a
// reopened log reproduces them exactly, and a filtered feed still sees
// the boundary version's change.
func TestSparseHistoryCompaction(t *testing.T) {
	const versions = 2000
	ctx := context.Background()
	path := tempLog(t)
	s, err := Open(path, Config{FeedBuffer: versions})
	if err != nil {
		t.Fatal(err)
	}
	paras := make([][]string, 4)
	for p := range paras {
		for k := 0; k < 9; k++ {
			paras[p] = append(paras[p], fmt.Sprintf("Sentence %d of paragraph %d states fact x.", k, p))
		}
	}
	var fps []string
	var sub *Subscription
	for i := 0; i < versions; i++ {
		res, err := s.Ingest(ctx, "page", "text", sparsePage(paras, i))
		if err != nil {
			t.Fatalf("ingest v%d: %v", i+1, err)
		}
		if res.Noop || res.Version != i+1 {
			t.Fatalf("ingest %d: version %d noop=%v", i, res.Version, res.Noop)
		}
		fps = append(fps, res.Fingerprint)
		d := s.docs["page"]
		if bound, n := d.head.IDBound(), d.head.Len(); int(bound) > 2*n+64 {
			t.Fatalf("v%d: head IDBound %d exceeds 2·%d+64", res.Version, bound, n)
		}
		if i == 0 {
			if sub, err = s.Subscribe("page", SubscribeOptions{Filter: "**/sentence[changed]"}); err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}
	}
	events := map[int]Event{}
	for _, ev := range changeEvents(drain(sub)) {
		events[ev.Version] = ev
	}

	infos, err := s.Versions("page")
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int
	for _, info := range infos {
		if info.Rebase {
			boundaries = append(boundaries, info.Version)
		}
	}
	t.Logf("%d compaction rebases in %d versions", len(boundaries), versions)
	if len(boundaries) < 10 {
		t.Fatalf("%d compaction rebases in %d versions, want at least 10", len(boundaries), versions)
	}
	for _, v := range boundaries {
		if infos[v-1].Ops.Total() != 0 {
			t.Errorf("rebase v%d records %d ops, want 0", v, infos[v-1].Ops.Total())
		}
		for _, w := range []int{v - 1, v} {
			if _, info, err := s.Checkout(ctx, "page", w); err != nil || info.Fingerprint != fps[w-1] {
				t.Fatalf("checkout v%d beside boundary v%d: %v (fingerprint %s, ingested %s)",
					w, v, err, info.Fingerprint, fps[w-1])
			}
		}
		if _, ok, err := s.ComposeDiff("page", v-1, v); err != nil || ok {
			t.Fatalf("ComposeDiff across boundary v%d: ok=%v err=%v, want ok=false", v, ok, err)
		}
		res, err := s.RediffVersions(ctx, "page", v-1, v)
		if err != nil {
			t.Fatalf("RediffVersions across boundary v%d: %v", v, err)
		}
		if _, err := res.ApplyToOld(); err != nil {
			t.Fatalf("rediff script across boundary v%d: %v", v, err)
		}
		if ev, ok := events[v]; !ok || !ev.Rebase || ev.TotalHits == 0 {
			t.Fatalf("feed event for boundary v%d: %+v (delivered %v), want a rebase change with hits", v, ev, ok)
		}
	}

	wantHead := s.docs["page"].head.String()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	replayed, err := re.Versions("page")
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(infos) {
		t.Fatalf("reopened store has %d versions, want %d", len(replayed), len(infos))
	}
	for i, info := range replayed {
		if info.Fingerprint != infos[i].Fingerprint || info.Rebase != infos[i].Rebase {
			t.Fatalf("v%d after reopen: fingerprint %s rebase %v, live %s %v",
				i+1, info.Fingerprint, info.Rebase, infos[i].Fingerprint, infos[i].Rebase)
		}
	}
	if got := re.docs["page"].head.String(); got != wantHead {
		t.Fatalf("reopened head differs from the live head:\n%s\nwant\n%s", got, wantHead)
	}
}

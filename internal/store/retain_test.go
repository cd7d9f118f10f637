package store

import (
	"context"
	"runtime"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/htmldoc"
)

// retainedPerVersionBound is the live heap one lightly edited version of
// a ~100-node html page may add to an in-memory store at the default
// checkpoint interval. A version retains an exact-length forward and
// inverse script, its VersionInfo and, every eighth version, a
// cache-free snapshot: about 2,310 bytes at the time of writing (amd64,
// Go 1.24), over half of it snapshots. Snapshots that are the head
// object itself, keeping the Euler index and fingerprint table its next
// diff built, read about 3,770.
const retainedPerVersionBound = 2800

// pageVersions returns the html source of a gen page and of n-1 lightly
// edited successors, each one sentence updated, inserted and deleted.
// Sentences end with a period, which gen's do not, so the html parser
// keeps each one a leaf of its own.
func pageVersions(t *testing.T, n int) func(v int) string {
	t.Helper()
	doc := gen.Document(gen.DocParams{Seed: 42, Sections: 4})
	return func(v int) string {
		if v > 1 {
			p, err := gen.Perturb(doc, gen.PerturbParams{Seed: int64(v),
				UpdateSentences: 1, InsertSentences: 1, DeleteSentences: 1})
			if err != nil {
				t.Fatalf("perturb v%d: %v", v, err)
			}
			doc = p.New
		}
		page := doc.Clone()
		for _, s := range page.Chain(gen.LabelSentence) {
			page.SetValue(s, s.Value()+".")
		}
		return htmldoc.Render(page)
	}
}

// heapAfterGC returns the live heap after full collections; the second
// also frees what sync.Pool victim caches kept through the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedBytesPerVersion pins what a version costs to keep: the
// live heap an in-memory store grows by per ingested version, and that
// no retained snapshot is the head, whose next diff caches tables on it
// that no checkout reads. Each source is generated inside the loop and
// dropped after its ingest, so a store that kept a source alive would
// pay for it here.
func TestRetainedBytesPerVersion(t *testing.T) {
	const versions = 300
	ctx := context.Background()
	next := pageVersions(t, versions)
	s := New(Config{})
	if _, err := s.Ingest(ctx, "page", "html", next(1)); err != nil {
		t.Fatal(err)
	}
	before := heapAfterGC()
	snapshots := 0
	for v := 2; v <= versions; v++ {
		res, err := s.Ingest(ctx, "page", "html", next(v))
		if err != nil {
			t.Fatalf("ingest v%d: %v", v, err)
		}
		if res.Noop || res.Version != v {
			t.Fatalf("ingest v%d: version %d (noop %v)", v, res.Version, res.Noop)
		}
		d, err := s.doc("page", false)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.RLock()
		for n, snap := range d.snapshots {
			if snap == d.head {
				t.Errorf("after v%d: the snapshot of v%d is the head itself", v, n)
			}
		}
		snapshots = len(d.snapshots)
		d.mu.RUnlock()
	}
	after := heapAfterGC()
	runtime.KeepAlive(s)
	if snapshots < versions/8 {
		t.Fatalf("%d snapshots after %d versions, want at least %d", snapshots, versions, versions/8)
	}
	per := (int64(after) - int64(before)) / (versions - 1)
	t.Logf("%d versions, %d snapshots: %d bytes retained per version", versions, snapshots, per)
	if per > retainedPerVersionBound {
		t.Errorf("%d bytes retained per version, want at most %d", per, retainedPerVersionBound)
	}
}

// Package store is the versioned document store: the paper's §1
// version-and-configuration-management motivation ([HKG+94]) promoted
// into a subsystem. Per document key it keeps the latest parsed tree
// plus a chain of inverse edit scripts — checkout of version n replays
// inverses backward from the nearest snapshot, with periodic checkpoint
// snapshots so checkout cost is bounded by the checkpoint interval
// rather than the chain depth.
//
// The store is concurrency-safe (per-document locking under a store-wide
// key map), detects no-op ingests cheaply via Merkle root fingerprints
// (internal/fingerprint) with structural re-verification before any
// claim commits, shares checkpoint snapshots between fingerprint-
// identical versions, optionally persists to an append-only JSON log
// (persist.go) replayed on startup, and fans ingested changes out to
// subscribers through filtered, normalization-aware change feeds
// (feed.go).
package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/edit"
	"ladiff/internal/fault"
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// Errors surfaced by the store beyond the lderr taxonomy (parse and
// limit failures from ingest are ErrParse/ErrLimit-tagged). Test with
// errors.Is.
var (
	// ErrUnknownKey: no document has been ingested under the key.
	ErrUnknownKey = errors.New("store: unknown document key")
	// ErrUnknownVersion: the version number is outside [1, latest].
	ErrUnknownVersion = errors.New("store: unknown version")
	// ErrFormatMismatch: an ingest named a different format than the
	// one the document's first ingest pinned.
	ErrFormatMismatch = errors.New("store: format differs from the document's")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("store: closed")
	// ErrLogBroken: a previous log append failed mid-write, so further
	// ingests are refused rather than silently diverging from disk.
	ErrLogBroken = errors.New("store: persistence log broken")
)

// Config tunes one Store. The zero value is usable: every field has a
// default applied by New/Open.
type Config struct {
	// CheckpointEvery takes a full snapshot of the document every N
	// versions, bounding checkout replay to < N inverse scripts.
	// 0 means 8; negative disables checkpoints (checkout of version v
	// then replays the whole chain from the head down to v).
	CheckpointEvery int
	// Limits bounds what an ingest may parse; the zero value is
	// unlimited. Violations surface as lderr.ErrLimit.
	Limits tree.Limits
	// FeedBuffer is the per-subscriber event channel capacity. A
	// subscriber that falls further behind than this has events dropped
	// (counted, never blocking ingest). 0 means 16.
	FeedBuffer int
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.FeedBuffer <= 0 {
		c.FeedBuffer = 16
	}
	return c
}

// VersionInfo is the metadata recorded for one committed version.
type VersionInfo struct {
	// Version is the 1-based version number.
	Version int `json:"version"`
	// Fingerprint is the Merkle root fingerprint of the version's
	// content (hex), the value checkout verification replays against.
	Fingerprint string `json:"fingerprint"`
	// Nodes is the parsed tree size.
	Nodes int `json:"nodes"`
	// Ops counts the edit operations from the previous version (all
	// zero for version 1 and for rebased versions).
	Ops OpCounts `json:"ops"`
	// Rebase records that this version was stored as a fresh base
	// snapshot instead of a delta against its predecessor: the roots
	// were unmatched, or the delta's head would have had an ID space
	// mostly of holes (a compaction).
	Rebase bool `json:"rebase,omitempty"`
	// Time is the ingest wall-clock time (UTC, RFC 3339).
	Time time.Time `json:"time"`
}

// OpCounts tallies one edit script by operation kind.
type OpCounts struct {
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
	Updates int `json:"updates"`
	Moves   int `json:"moves"`
}

func countOps(s edit.Script) OpCounts {
	i, d, u, m := s.Counts()
	return OpCounts{Inserts: i, Deletes: d, Updates: u, Moves: m}
}

// Total returns the summed operation count.
func (o OpCounts) Total() int { return o.Inserts + o.Deletes + o.Updates + o.Moves }

// IngestResult reports one Ingest call.
type IngestResult struct {
	Key     string
	Version int
	// Noop reports that the ingested content was fingerprint-identical
	// (structurally confirmed) to the current head: no new version was
	// created and Version is the existing latest version — ingest is
	// idempotent.
	Noop        bool
	Fingerprint string
	Nodes       int
	Ops         OpCounts
}

// Stats is the store's counter snapshot, served under "store" on the
// daemon's /metrics.
type Stats struct {
	Docs                int64 `json:"docs"`
	VersionsTotal       int64 `json:"versions_total"`
	IngestsTotal        int64 `json:"ingests_total"`
	NoopIngestsTotal    int64 `json:"noop_ingests_total"`
	RebasesTotal        int64 `json:"rebases_total"`
	CheckoutsTotal      int64 `json:"checkouts_total"`
	CheckoutReplayOps   int64 `json:"checkout_replay_scripts_total"`
	SharedSnapshots     int64 `json:"shared_snapshots_total"`
	FeedSubscribers     int64 `json:"feed_subscribers"`
	FeedEventsTotal     int64 `json:"feed_events_total"`
	FeedDroppedTotal    int64 `json:"feed_dropped_total"`
	FeedSuppressedTotal int64 `json:"feed_suppressed_total"`
}

type counters struct {
	docs, versions, ingests, noops, rebases    atomic.Int64
	checkouts, replays, sharedSnaps            atomic.Int64
	feedSubs, feedEvents, feedDrops, feedSupps atomic.Int64
}

// Store is a concurrency-safe versioned document store. Construct with
// New (in-memory) or Open (persistent); Close releases the log file and
// terminates every subscription.
type Store struct {
	cfg Config
	ctr counters

	mu     sync.RWMutex
	docs   map[string]*document
	closed bool
	// sharedSnaps deduplicates checkpoint snapshots across documents
	// and versions: fingerprint-identical content (structurally
	// re-verified) shares one read-only tree.
	sharedSnaps map[tree.Fingerprint]*tree.Tree
	// log is the append-only persistence writer; nil for an in-memory
	// store.
	log *logWriter
}

// document is one key's state. All fields are guarded by mu; the trees
// reachable from head and snapshots are read-only once stored (checkout
// clones before replaying).
type document struct {
	mu     sync.RWMutex
	key    string
	format string
	head   *tree.Tree
	// versions[i] describes version i+1.
	versions []VersionInfo
	// forwards[i] transforms version i+1 into version i+2 (nil at a
	// rebase boundary); inverses[i] transforms version i+2 back into
	// version i+1. Both have length len(versions)-1.
	forwards []edit.Script
	inverses []edit.Script
	// snapshots holds full trees at checkpoint versions and on both
	// sides of every rebase boundary; the head is the implicit snapshot
	// at the latest version.
	snapshots map[int]*tree.Tree
	subs      map[*Subscription]struct{}
}

// New returns an in-memory store.
func New(cfg Config) *Store {
	return &Store{
		cfg:         cfg.withDefaults(),
		docs:        make(map[string]*document),
		sharedSnaps: make(map[tree.Fingerprint]*tree.Tree),
	}
}

// fpOf returns the Merkle root fingerprint of t.
func fpOf(t *tree.Tree) tree.Fingerprint {
	if t == nil || t.Root() == nil {
		return tree.Fingerprint{}
	}
	return t.Fingerprints().Root()
}

// Keys returns the document keys in unspecified order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for k := range s.docs {
		out = append(out, k)
	}
	return out
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Docs:                s.ctr.docs.Load(),
		VersionsTotal:       s.ctr.versions.Load(),
		IngestsTotal:        s.ctr.ingests.Load(),
		NoopIngestsTotal:    s.ctr.noops.Load(),
		RebasesTotal:        s.ctr.rebases.Load(),
		CheckoutsTotal:      s.ctr.checkouts.Load(),
		CheckoutReplayOps:   s.ctr.replays.Load(),
		SharedSnapshots:     s.ctr.sharedSnaps.Load(),
		FeedSubscribers:     s.ctr.feedSubs.Load(),
		FeedEventsTotal:     s.ctr.feedEvents.Load(),
		FeedDroppedTotal:    s.ctr.feedDrops.Load(),
		FeedSuppressedTotal: s.ctr.feedSupps.Load(),
	}
}

// doc returns the document for key, creating it when create is set.
func (s *Store) doc(key string, create bool) (*document, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	d := s.docs[key]
	if d == nil {
		if !create {
			return nil, fmt.Errorf("%w: %q", ErrUnknownKey, key)
		}
		d = &document{
			key:       key,
			snapshots: make(map[int]*tree.Tree),
			subs:      make(map[*Subscription]struct{}),
		}
		s.docs[key] = d
	}
	return d, nil
}

// sharedSnapshot interns t as a read-only snapshot: if a tree of equal
// fingerprint that is identical to t, node IDs and IDBound included, is
// already retained, that tree is shared instead of keeping another copy.
// Equal content is not enough: checkouts replay ID-addressed inverse
// scripts on the snapshot.
func (s *Store) sharedSnapshot(t *tree.Tree) *tree.Tree {
	fp := fpOf(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.sharedSnaps[fp]; prev != nil && tree.Identical(prev, t) {
		s.ctr.sharedSnaps.Add(1)
		return prev
	}
	s.sharedSnaps[fp] = t
	return t
}

// Ingest commits the document source as the next version of key,
// parsing it in the named format (pinned by the key's first ingest).
// A fingerprint-identical ingest (structurally confirmed) is a cheap
// no-op returning the existing version number. The context bounds the
// internal diff; parse and limit failures are ErrParse/ErrLimit-tagged.
func (s *Store) Ingest(ctx context.Context, key, format, src string) (IngestResult, error) {
	if err := fault.Check(fault.StoreIngest); err != nil {
		return IngestResult{}, err
	}
	s.ctr.ingests.Add(1)
	if !ValidFormat(format) {
		return IngestResult{}, lderr.TagAs(lderr.ErrParse,
			fmt.Errorf("store: unknown format %q (want one of %v)", format, Formats))
	}
	_, sp := obs.StartSpan(ctx, "store.ingest")
	sp.Str("key", key)
	defer sp.End()

	// Parse before taking any lock: the canonical tree for every
	// version is the store's own parse of the source, which is what
	// makes persistence replay (re-parse the logged base, re-apply the
	// logged deltas) land on the identical identifier space.
	next, err := ParseDoc(format, src, s.cfg.Limits)
	if err != nil {
		sp.Str("error", err.Error())
		return IngestResult{}, err
	}

	d, err := s.doc(key, true)
	if err != nil {
		return IngestResult{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	if d.head == nil {
		return s.commitBase(d, format, src, next, sp)
	}
	if d.format != format {
		return IngestResult{}, fmt.Errorf("%w: key %q is %q, ingest says %q",
			ErrFormatMismatch, key, d.format, format)
	}

	// No-op gate: equal root fingerprints re-verified structurally, so
	// a hash collision degrades to a normal diff rather than silently
	// dropping a version.
	if fpOf(d.head) == fpOf(next) && tree.Isomorphic(d.head, next) {
		s.ctr.noops.Add(1)
		sp.Str("result", "noop")
		info := d.versions[len(d.versions)-1]
		return IngestResult{Key: key, Version: info.Version, Noop: true,
			Fingerprint: info.Fingerprint, Nodes: info.Nodes}, nil
	}

	res, err := core.Diff(d.head, next, core.Options{
		Ctx:   ctx,
		Match: matchOpts(),
	})
	if err != nil {
		sp.Str("error", err.Error())
		return IngestResult{}, err
	}
	if res.RootsWrapped {
		// The roots did not match, so no delta against the predecessor
		// exists in the chain's identifier space: rebase. The previous
		// head is snapshotted (it is no longer reachable by replaying
		// inverses from the new head) and the new version becomes a
		// fresh base.
		return s.commitRebase(ctx, d, src, next, res, sp)
	}

	advanced, err := res.ApplyToOld()
	if err != nil {
		return IngestResult{}, lderr.Internal(fmt.Errorf("store: advancing head: %w", err))
	}
	if advanced.IDBound() > 2*tree.NodeID(advanced.Len())+64 {
		// Compaction: a head keeps every ID its history ever allocated,
		// and every table the next diff builds is sized by the ID bound.
		// Once most of the ID space is holes, the version is stored as a
		// fresh base instead, whose parse numbers its nodes 1..Len, so
		// no ingest's work grows with the document's history.
		return s.commitRebase(ctx, d, src, next, res, sp)
	}
	forward := res.Script
	inverse, err := edit.Invert(forward, d.head)
	if err != nil {
		return IngestResult{}, lderr.Internal(fmt.Errorf("store: inverting delta: %w", err))
	}

	n := len(d.versions) + 1
	info := VersionInfo{
		Version:     n,
		Fingerprint: fpOf(advanced).String(),
		Nodes:       advanced.Len(),
		Ops:         countOps(forward),
		Time:        time.Now().UTC(),
	}
	// Disk before memory: a crash between the two leaves the log ahead
	// of the (gone) memory state, which replay restores; the reverse
	// order would lose a version the caller was told about.
	if err := s.appendLog(logRecord{Kind: "delta", Key: key,
		Version: n, FP: info.Fingerprint, Script: forward, Time: info.Time}); err != nil {
		return IngestResult{}, err
	}
	prev := d.head
	d.forwards = append(d.forwards, forward)
	d.inverses = append(d.inverses, inverse)
	d.versions = append(d.versions, info)
	d.head = advanced
	s.checkpoint(d, n, advanced)
	s.ctr.versions.Add(1)
	sp.Int("version", int64(n))
	sp.Int("ops", int64(len(forward)))

	s.fanout(ctx, d, prev, advanced, res, info)
	return IngestResult{Key: key, Version: n, Fingerprint: info.Fingerprint,
		Nodes: info.Nodes, Ops: info.Ops}, nil
}

// matchOpts is the matcher configuration every internal diff runs
// under: the fingerprint ladder's identical-subtree pruning is on,
// because consecutive document versions are its home turf (most
// subtrees are unchanged) and the pruned path re-verifies every claim
// structurally before it commits.
func matchOpts() match.Options {
	return match.Options{PruneIdentical: true}
}

func (s *Store) commitBase(d *document, format, src string, next *tree.Tree, sp *obs.Span) (IngestResult, error) {
	info := VersionInfo{
		Version:     1,
		Fingerprint: fpOf(next).String(),
		Nodes:       next.Len(),
		Time:        time.Now().UTC(),
	}
	if err := s.appendLog(logRecord{Kind: "base", Key: d.key, Format: format,
		Version: 1, FP: info.Fingerprint, Source: src, Time: info.Time}); err != nil {
		return IngestResult{}, err
	}
	d.format = format
	d.head = next
	d.versions = []VersionInfo{info}
	s.ctr.docs.Add(1)
	s.ctr.versions.Add(1)
	sp.Int("version", 1)
	s.fanout(context.Background(), d, nil, next, nil, info)
	return IngestResult{Key: d.key, Version: 1, Fingerprint: info.Fingerprint,
		Nodes: info.Nodes}, nil
}

func (s *Store) commitRebase(ctx context.Context, d *document, src string, next *tree.Tree, res *core.Result, sp *obs.Span) (IngestResult, error) {
	n := len(d.versions) + 1
	info := VersionInfo{
		Version:     n,
		Fingerprint: fpOf(next).String(),
		Nodes:       next.Len(),
		Rebase:      true,
		Time:        time.Now().UTC(),
	}
	if err := s.appendLog(logRecord{Kind: "base", Key: d.key, Format: d.format,
		Version: n, FP: info.Fingerprint, Source: src, Time: info.Time}); err != nil {
		return IngestResult{}, err
	}
	prev := d.head
	// Both sides of the boundary become snapshots: the old head is
	// unreachable from the new head (no inverse crosses the boundary),
	// and the new base anchors the chain going forward.
	d.snapshots[n-1] = s.sharedSnapshot(prev)
	d.forwards = append(d.forwards, nil)
	d.inverses = append(d.inverses, nil)
	d.versions = append(d.versions, info)
	d.head = next
	s.ctr.versions.Add(1)
	s.ctr.rebases.Add(1)
	sp.Int("version", int64(n))
	sp.Str("result", "rebase")
	s.fanout(ctx, d, prev, next, res, info)
	return IngestResult{Key: d.key, Version: n, Fingerprint: info.Fingerprint,
		Nodes: info.Nodes}, nil
}

// checkpoint retains a snapshot of version n when the checkpoint
// interval says so. Snapshots are interned through the fingerprint map,
// so two identical versions (across documents or time) share one tree.
func (s *Store) checkpoint(d *document, n int, t *tree.Tree) {
	if s.cfg.CheckpointEvery > 0 && n%s.cfg.CheckpointEvery == 0 {
		d.snapshots[n] = s.sharedSnapshot(t)
	}
}

// Format returns the parser format pinned by key's first ingest.
func (s *Store) Format(key string) (string, error) {
	d, err := s.doc(key, false)
	if err != nil {
		return "", err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.format, nil
}

// Versions returns the metadata of every committed version of key,
// oldest first.
func (s *Store) Versions(key string) ([]VersionInfo, error) {
	d, err := s.doc(key, false)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.head == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	out := make([]VersionInfo, len(d.versions))
	copy(out, d.versions)
	return out, nil
}

// Latest returns the newest version's metadata.
func (s *Store) Latest(key string) (VersionInfo, error) {
	d, err := s.doc(key, false)
	if err != nil {
		return VersionInfo{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.head == nil {
		return VersionInfo{}, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	return d.versions[len(d.versions)-1], nil
}

// Checkout materializes version v of key as a fresh tree (the caller
// owns it), verifying the reconstruction against the version's recorded
// fingerprint before returning it.
func (s *Store) Checkout(ctx context.Context, key string, v int) (*tree.Tree, VersionInfo, error) {
	d, err := s.doc(key, false)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	_, sp := obs.StartSpan(ctx, "store.checkout")
	sp.Str("key", key)
	sp.Int("version", int64(v))
	defer sp.End()
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, info, replays, err := s.checkoutLocked(d, v)
	if err != nil {
		sp.Str("error", err.Error())
		return nil, VersionInfo{}, err
	}
	sp.Int("replayed_scripts", int64(replays))
	return t, info, nil
}

// checkoutLocked reconstructs version v with d.mu held (read is
// enough: stored trees are read-only and the replay works on a clone).
func (s *Store) checkoutLocked(d *document, v int) (*tree.Tree, VersionInfo, int, error) {
	n := len(d.versions)
	if d.head == nil || v < 1 || v > n {
		return nil, VersionInfo{}, 0, fmt.Errorf("%w: %q has versions 1..%d, want %d",
			ErrUnknownVersion, d.key, n, v)
	}
	s.ctr.checkouts.Add(1)
	// Find the nearest snapshot at or above v. Rebase boundaries always
	// have a snapshot on their low side, so the scan never needs to
	// cross a nil inverse.
	base := v
	for base < n {
		if _, ok := d.snapshots[base]; ok {
			break
		}
		if d.inverses[base-1] == nil {
			return nil, VersionInfo{}, 0, lderr.Internal(fmt.Errorf(
				"store: %q: broken chain at version %d (no snapshot below rebase)", d.key, base))
		}
		base++
	}
	var work *tree.Tree
	if base == n {
		work = d.head.Clone()
	} else {
		work = d.snapshots[base].Clone()
	}
	replays := 0
	for i := base; i > v; i-- {
		// inverses[i-2] transforms version i into version i-1.
		if err := d.inverses[i-2].Apply(work); err != nil {
			return nil, VersionInfo{}, 0, lderr.Internal(fmt.Errorf(
				"store: %q: replaying inverse %d->%d: %w", d.key, i, i-1, err))
		}
		replays++
	}
	s.ctr.replays.Add(int64(replays))
	info := d.versions[v-1]
	if got := fpOf(work).String(); got != info.Fingerprint {
		return nil, VersionInfo{}, 0, lderr.Internal(fmt.Errorf(
			"store: %q version %d: checkout fingerprint %s does not match recorded %s",
			d.key, v, got, info.Fingerprint))
	}
	return work, info, replays, nil
}

// ComposeDiff returns the edit script from version `from` to version
// `to` of key by concatenating the stored delta chain — forwards when
// ascending, inverses when descending. The result applies to a checkout
// of `from` (the chain shares one identifier space) and is exact but
// not minimal: a node edited in several intermediate versions
// contributes one operation per hop. A rebase boundary between the two
// versions has no stored delta crossing it; ok is false and the caller
// should re-diff checkouts instead (RediffVersions).
func (s *Store) ComposeDiff(key string, from, to int) (edit.Script, bool, error) {
	d, err := s.doc(key, false)
	if err != nil {
		return nil, false, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.versions)
	if d.head == nil || from < 1 || from > n || to < 1 || to > n {
		return nil, false, fmt.Errorf("%w: %q has versions 1..%d, want %d..%d",
			ErrUnknownVersion, d.key, n, from, to)
	}
	var out edit.Script
	switch {
	case from < to:
		for i := from; i < to; i++ {
			f := d.forwards[i-1] // version i -> i+1
			if f == nil {
				return nil, false, nil
			}
			out = append(out, f...)
		}
	case from > to:
		for i := from; i > to; i-- {
			inv := d.inverses[i-2] // version i -> i-1
			if inv == nil {
				return nil, false, nil
			}
			out = append(out, inv...)
		}
	}
	return out, true, nil
}

// RediffVersions checks out both versions and runs the full pipeline
// between them, returning the core Result (script, matching, delta-tree
// inputs). Unlike ComposeDiff the script is freshly minimized, and it
// works across rebase boundaries.
func (s *Store) RediffVersions(ctx context.Context, key string, from, to int) (*core.Result, error) {
	oldT, _, err := s.Checkout(ctx, key, from)
	if err != nil {
		return nil, err
	}
	newT, _, err := s.Checkout(ctx, key, to)
	if err != nil {
		return nil, err
	}
	return core.Diff(oldT, newT, core.Options{Ctx: ctx, Match: matchOpts()})
}

// Close terminates every subscription, closes the persistence log, and
// refuses further operations.
func (s *Store) Close() error {
	s.CloseFeeds()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		return s.log.close()
	}
	return nil
}

// appendLog writes one record to the persistence log (a no-op for
// in-memory stores).
func (s *Store) appendLog(rec logRecord) error {
	if s.log == nil {
		return nil
	}
	return s.log.append(rec)
}

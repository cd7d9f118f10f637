package store

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/delta"
	"ladiff/internal/lderr"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// EventType classifies feed events.
type EventType string

const (
	// EventSnapshot is the first event on every subscription: the
	// document's current latest version, so a consumer knows where the
	// feed starts.
	EventSnapshot EventType = "snapshot"
	// EventCatchUp is emitted right after the snapshot when the
	// subscriber supplied a Since version that does not match the
	// current latest — older (versions were committed while the
	// consumer was away) or, after an in-memory replica restarted
	// empty, newer than anything this store has (the version chain here
	// is a different, shorter history). Either way the consumer's
	// notion of the document has diverged from this server's and it
	// should fetch the current state (e.g. /v1/docs/{key}/diff?from=&to=
	// or a checkout) to resync, then follow the change events from the
	// snapshot version.
	EventCatchUp EventType = "catchup"
	// EventChange is a live change notification for one newly committed
	// version.
	EventChange EventType = "change"
)

// ChangeHit is one node selected by a subscription's filter in the
// change's delta tree.
type ChangeHit struct {
	// Path is the label path from the document root, "/"-separated.
	Path string `json:"path"`
	// Kind is the delta annotation mnemonic (UPD, INS, DEL, MOV, MRK).
	Kind string `json:"kind"`
	// Value is the node's current content (old content for tombstones).
	Value string `json:"value,omitempty"`
	// OldValue is the pre-update content for UPD and updated MRK nodes.
	OldValue string `json:"old_value,omitempty"`
}

// maxHitsPerEvent caps Event.Hits.
const maxHitsPerEvent = 16

// Event is one feed notification.
type Event struct {
	Type        EventType `json:"type"`
	Key         string    `json:"key"`
	Version     int       `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	Nodes       int       `json:"nodes"`
	Ops         OpCounts  `json:"ops"`
	Rebase      bool      `json:"rebase,omitempty"`
	// Hits lists the filter's matches in the change's delta tree, capped
	// at maxHitsPerEvent; TotalHits is the uncapped count. Both
	// are empty for snapshot/catch-up events and for changes where no
	// per-node attribution exists (a document's first version, or a diff
	// that could not run inside the ingest context).
	Hits      []ChangeHit `json:"hits,omitempty"`
	TotalHits int         `json:"total_hits"`
	// Dropped counts events this subscription lost to back-pressure
	// since the previous delivered event.
	Dropped int64     `json:"dropped,omitempty"`
	Time    time.Time `json:"time"`
}

// SubscribeOptions configures one feed subscription.
type SubscribeOptions struct {
	// Filter is a delta query (internal/delta syntax, e.g.
	// "doc/sections/pricing/**[changed]"). A change event fires iff the
	// query selects at least one non-identity node in the version's
	// delta tree. Empty means every change fires.
	Filter string
	// Ignore is a list of regular expressions stripped (replaced with
	// "") from every node value of both versions before the feed's diff
	// runs: churn the patterns fully explain — timestamps, counters —
	// produces no event at all. The version chain itself always records
	// the real content; normalization shapes notifications only.
	Ignore []string
	// Since is the last version number the consumer has already seen; a
	// catch-up event is emitted when the document has moved past it.
	// 0 means "start from now".
	Since int
}

// Subscription is one live feed. Events arrive on Events(); the channel
// is closed by Close (idempotent, also called for every subscription by
// Store.CloseFeeds on shutdown). A subscriber that stops draining does
// not block ingest: events are dropped and counted instead.
type Subscription struct {
	store *Store
	d     *document
	ch    chan Event
	once  sync.Once

	filterExpr string
	query      *delta.Query
	ignores    []*regexp.Regexp
	// ignoreKey groups subscriptions with the same ignore set so one
	// fanout normalizes and diffs once per distinct set.
	ignoreKey string
	// dropped counts undelivered events since the last delivery;
	// guarded by d.mu.
	dropped int64
}

// Events returns the subscription's event channel.
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Filter returns the subscription's filter expression ("" when
// unfiltered).
func (sub *Subscription) Filter() string { return sub.filterExpr }

// Close unregisters the subscription and closes its event channel. Safe
// to call more than once and concurrently with ingest.
func (sub *Subscription) Close() {
	sub.once.Do(func() {
		sub.d.mu.Lock()
		delete(sub.d.subs, sub)
		sub.d.mu.Unlock()
		close(sub.ch)
		sub.store.ctr.feedSubs.Add(-1)
	})
}

// Subscribe opens a change feed on an existing document key. Bad filter
// or ignore-pattern syntax is reported as a parse-class error
// (lderr.ErrParse); an unknown key as ErrUnknownKey.
func (s *Store) Subscribe(key string, opts SubscribeOptions) (*Subscription, error) {
	var q *delta.Query
	if opts.Filter != "" {
		var err error
		if q, err = delta.ParseQuery(opts.Filter); err != nil {
			return nil, lderr.TagAs(lderr.ErrParse, err)
		}
	}
	ignores := make([]*regexp.Regexp, 0, len(opts.Ignore))
	for _, pat := range opts.Ignore {
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, lderr.TagAs(lderr.ErrParse,
				fmt.Errorf("store: bad ignore pattern %q: %w", pat, err))
		}
		ignores = append(ignores, re)
	}
	d, err := s.doc(key, false)
	if err != nil {
		return nil, err
	}
	sub := &Subscription{
		store:      s,
		d:          d,
		ch:         make(chan Event, max(s.cfg.FeedBuffer, 2)),
		filterExpr: opts.Filter,
		query:      q,
		ignores:    ignores,
		ignoreKey:  strings.Join(opts.Ignore, "\x00"),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	latest := d.versions[len(d.versions)-1]
	d.subs[sub] = struct{}{}
	s.ctr.feedSubs.Add(1)
	// Seed events go out under the document lock, before any ingest can
	// fan out to this subscription; the channel capacity (>= 2) makes
	// the sends non-blocking.
	s.deliver(sub, Event{Type: EventSnapshot, Key: key, Version: latest.Version,
		Fingerprint: latest.Fingerprint, Nodes: latest.Nodes, Time: time.Now().UTC()})
	// A consumer behind the head missed commits; a consumer *ahead* of
	// the head is resuming against a replica whose chain restarted (an
	// in-memory store that came back empty). Both are divergence, both
	// get the catch-up hint — erroring or staying silent would strand
	// the consumer.
	if opts.Since > 0 && latest.Version != opts.Since {
		s.deliver(sub, Event{Type: EventCatchUp, Key: key, Version: latest.Version,
			Fingerprint: latest.Fingerprint, Nodes: latest.Nodes, Time: time.Now().UTC()})
	}
	return sub, nil
}

// CloseFeeds terminates every subscription on every document — the
// shutdown path: the serving tier drains feed handlers by closing their
// event channels.
func (s *Store) CloseFeeds() {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	for _, d := range docs {
		d.mu.Lock()
		subs := make([]*Subscription, 0, len(d.subs))
		for sub := range d.subs {
			subs = append(subs, sub)
		}
		d.mu.Unlock()
		for _, sub := range subs {
			sub.Close()
		}
	}
}

// deliver sends ev to sub without ever blocking: a full buffer means the
// subscriber is not draining, so the event is dropped and counted, and
// the next delivered event carries the drop count. Callers hold d.mu.
func (s *Store) deliver(sub *Subscription, ev Event) {
	ev.Dropped = sub.dropped
	select {
	case sub.ch <- ev:
		sub.dropped = 0
		s.ctr.feedEvents.Add(1)
	default:
		sub.dropped++
		s.ctr.feedDrops.Add(1)
	}
}

// fanout notifies every subscription of d about a newly committed
// version. Called with d.mu held (write), which serializes events per
// document in commit order; nothing here blocks on subscribers.
//
// prev is the previous head (nil for a document's first version), next
// the new head, res the ingest diff (nil for first versions). For each
// distinct ignore-pattern set among the subscribers the change is
// normalized and re-diffed once; a change the patterns fully explain is
// suppressed for those subscribers.
func (s *Store) fanout(ctx context.Context, d *document, prev, next *tree.Tree, res *core.Result, info VersionInfo) {
	if len(d.subs) == 0 {
		return
	}
	_, sp := obs.StartSpan(ctx, "store.fanout")
	sp.Str("key", d.key)
	sp.Int("version", int64(info.Version))
	sp.Int("subscribers", int64(len(d.subs)))
	defer sp.End()

	groups := make(map[string][]*Subscription)
	for sub := range d.subs {
		groups[sub.ignoreKey] = append(groups[sub.ignoreKey], sub)
	}
	base := Event{Type: EventChange, Key: d.key, Version: info.Version,
		Fingerprint: info.Fingerprint, Nodes: info.Nodes, Ops: info.Ops,
		Rebase: info.Rebase, Time: time.Now().UTC()}

	for _, subs := range groups {
		dt, suppressed := s.deltaFor(ctx, prev, next, res, subs[0].ignores)
		for _, sub := range subs {
			if suppressed {
				s.ctr.feedSupps.Add(1)
				continue
			}
			ev := base
			if dt != nil {
				hits := sub.selectHits(dt)
				if len(hits) == 0 {
					// The filter selected nothing in this change: the
					// subscription is not interested. (Unfiltered
					// subscriptions always hit: a committed version
					// has at least one non-identity node.)
					continue
				}
				ev.TotalHits = len(hits)
				if len(hits) > maxHitsPerEvent {
					hits = hits[:maxHitsPerEvent]
				}
				ev.Hits = make([]ChangeHit, len(hits))
				for i, h := range hits {
					ev.Hits[i] = ChangeHit{Path: h.Path, Kind: h.Node.Kind.String(),
						Value: h.Node.Value, OldValue: h.Node.OldValue}
				}
			}
			s.deliver(sub, ev)
		}
	}
}

// deltaFor produces the delta tree a fanout group filters against.
// Without ignore patterns it reuses the ingest diff; with patterns it
// normalizes clones of both versions and re-diffs them. suppressed
// reports that normalization erased the whole change. A nil, non-
// suppressed delta tree means no per-node attribution exists (first
// version, or the normalized diff failed) — conservatively, every
// subscriber in the group is notified rather than silenced.
func (s *Store) deltaFor(ctx context.Context, prev, next *tree.Tree, res *core.Result, ignores []*regexp.Regexp) (*delta.Tree, bool) {
	if len(ignores) == 0 {
		if res == nil {
			return nil, false
		}
		dt, err := delta.Build(res)
		if err != nil {
			return nil, false
		}
		return dt, false
	}
	if prev == nil {
		return nil, false
	}
	nprev := normalize(prev, ignores)
	nnext := normalize(next, ignores)
	if fpOf(nprev) == fpOf(nnext) && tree.Isomorphic(nprev, nnext) {
		return nil, true
	}
	nres, err := core.Diff(nprev, nnext, core.Options{Ctx: ctx, Match: matchOpts()})
	if err != nil {
		return nil, false
	}
	dt, err := delta.Build(nres)
	if err != nil {
		return nil, false
	}
	return dt, false
}

// normalize returns a clone of t with every ignore pattern stripped
// (replaced with the empty string) from every node value. Labels are
// structural and are left alone.
func normalize(t *tree.Tree, ignores []*regexp.Regexp) *tree.Tree {
	out := t.Clone()
	out.Walk(func(n *tree.Node) bool {
		v := n.Value()
		if v == "" {
			return true
		}
		nv := v
		for _, re := range ignores {
			nv = re.ReplaceAllString(nv, "")
		}
		if nv != v {
			out.SetValue(n, nv)
		}
		return true
	})
	return out
}

// selectHits runs the subscription's filter against a change's delta
// tree, keeping only non-identity nodes (a filter that names unchanged
// nodes never fires an event).
func (sub *Subscription) selectHits(dt *delta.Tree) []delta.Hit {
	var hits []delta.Hit
	if sub.query != nil {
		hits = dt.Select(sub.query)
	} else {
		hits = dt.Changes()
	}
	out := hits[:0]
	for _, h := range hits {
		if h.Node.Kind != delta.Identity {
			out = append(out, h)
		}
	}
	return out
}

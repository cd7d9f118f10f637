package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"ladiff"
)

// sourceKey identifies a request by its source bytes: the SHA-256 of
// both documents (see sourceDigest) plus the options digest. It is
// each entry's identity, and it is checked before anything is parsed:
// the first lookup level of batch items and jobs, and the next after
// the body key on /v1/diff. The same bytes under the same options
// parse to the same trees under the server's fixed limits, and only
// sources that parsed within those limits are ever stored, so a source
// hit may skip the parse. SHA-256 rather than a cheaper
// non-cryptographic hash, so a crafted pair cannot alias another
// request's entry; a digest rather than the sources themselves, so an
// entry costs 32 bytes of key at any document size.
type sourceKey struct {
	digest [sha256.Size]byte
	opts   cacheOpts
}

// bodyKey identifies a POST /v1/diff request by its raw body: the
// SHA-256 of the bytes as received. It is the first lookup level of
// /v1/diff, checked before the body is even decoded. The same body
// bytes decode to the same request, so they name the same source key
// and the same answer; SHA-256 for the reason the source key uses it.
// Batch items and jobs have no body of their own and use the zero key,
// which the cache never indexes.
type bodyKey [sha256.Size]byte

// cacheOpts is the options digest of the source key: a comparable
// struct of the exact fields that influence the response, so distinct
// option sets can never alias (a hashed digest could, in principle).
type cacheOpts struct {
	format, output                   string
	matcher                          ladiff.Matcher
	leafThreshold, internalThreshold float64
	prune                            bool
}

// sourceDigest hashes uvarint(len(old)) ‖ old ‖ uvarint(len(new)) ‖
// new. The length prefixes keep the split between the documents
// unambiguous. The strings go through a fixed buffer because the hash
// has no WriteString, and converting them would copy both documents on
// every request.
func sourceDigest(old, new string) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	for _, s := range [2]string{old, new} {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(s)))])
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// diffCache is the LRU of rendered diff responses. It is one cache
// with two indexes: each entry lives under its source key, its
// identity, and under at most one body key, the latest that reached
// it, so the capacity counts entries, not keys. Every lookup is by a
// SHA-256 of request bytes, never by a fingerprint of parsed content.
// Only successful, non-degraded responses are stored (a degraded result
// reflects the budget pressure of its moment, not the documents). Miss
// and eviction counters land in the server Metrics for /metrics, and
// the server counts each hit once the request holds a slot (countHit);
// a request counts one hit or one miss, whichever level answers it.
type diffCache struct {
	mu       sync.Mutex
	max      int
	lru      *list.List // front = most recently used; values are *cacheEntry
	bySource map[sourceKey]*list.Element
	byBody   map[bodyKey]*list.Element
	met      *Metrics
}

// cacheEntry is one stored response. Its resp never changes: a put
// that replaces the response installs a new entry, so an encoding made
// outside the lock can only ever be stored on the entry it encodes.
type cacheEntry struct {
	src  sourceKey
	body bodyKey // zero until a /v1/diff request reaches the entry
	resp DiffResponse
	// hitJSON is resp as a hit (Cached set), encoded as writeJSON
	// writes it. The entry's first body-level hit fills it and later
	// ones write it as it is, so an entry holds at most one encoded
	// copy of its own response.
	hitJSON []byte
}

func newDiffCache(max int, met *Metrics) *diffCache {
	return &diffCache{
		max:      max,
		lru:      list.New(),
		bySource: make(map[sourceKey]*list.Element),
		byBody:   make(map[bodyKey]*list.Element),
		met:      met,
	}
}

// getBody returns the entry stored for a byte-identical /v1/diff body
// and its hit encoding, nil until the entry's first body-level hit. It
// refreshes the entry's recency but counts nothing: the request has
// yet to pass admission, and one refused there is neither a hit nor a
// miss. A miss goes on to decode the body, and the source level counts
// it.
func (c *diffCache) getBody(bk bodyKey) (*cacheEntry, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byBody[bk]
	if !ok {
		return nil, nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e, e.hitJSON, true
}

// setHitJSON memoizes e's hit encoding, made outside the lock. If e
// was evicted or replaced meanwhile the bytes go with it, unreachable
// from the cache.
func (c *diffCache) setHitJSON(e *cacheEntry, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.hitJSON == nil {
		e.hitJSON = b
	}
}

// getSource returns the response stored for byte-identical sources by
// value, and makes bk the entry's body key; the caller may set flags
// (Cached) on its copy. The interior Script/Delta allocations are
// shared across hits and are never mutated after store. A miss is
// counted here, before the request parses.
func (c *diffCache) getSource(src sourceKey, bk bodyKey) (DiffResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bySource[src]
	if !ok {
		c.met.CacheMisses.Add(1)
		return DiffResponse{}, false
	}
	c.learn(el, bk)
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// learn makes bk the body key of el's entry, dropping the one it
// replaces, unless bk is zero (a batch item or job, which leaves the
// body key as it is).
func (c *diffCache) learn(el *list.Element, bk bodyKey) {
	if bk == (bodyKey{}) {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.body != bk {
		delete(c.byBody, e.body)
		e.body = bk
	}
	c.byBody[bk] = el
}

// put stores resp under src and bk, evicting the least-recently-used
// entry, and both its keys, when the cache is full. A put over a
// stored source key (two concurrent misses of one pair) replaces that
// entry, whose body key and encoding go with it.
func (c *diffCache) put(src sourceKey, bk bodyKey, resp DiffResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{src: src, resp: resp}
	if el, ok := c.bySource[src]; ok {
		old := el.Value.(*cacheEntry)
		delete(c.byBody, old.body)
		el.Value = e
		c.learn(el, bk)
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(e)
	c.bySource[src] = el
	c.learn(el, bk)
	if c.lru.Len() > c.max {
		oldest := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.bySource, oldest.src)
		delete(c.byBody, oldest.body)
		c.met.CacheEvictions.Add(1)
	}
	c.met.CacheSize.Store(int64(c.lru.Len()))
}

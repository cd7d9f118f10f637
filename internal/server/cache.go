package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"ladiff"
)

// cacheKey identifies a cached diff by content, not by request bytes:
// the Merkle root fingerprints of the two parsed documents plus every
// request option that can change the response. It is the entry's
// identity and the second lookup level: a request whose source text
// differs from a cached one only in ways the parser normalizes away
// (whitespace, say) misses the source key but still hits here. A hit
// is safe to replay because parsing is deterministic: identical tree
// content always gets identical node IDs, so the cached script's ID
// references are valid against any content-equal parse.
type cacheKey struct {
	oldFP, newFP ladiff.Fingerprint
	opts         cacheOpts
}

// sourceKey identifies a request by its source bytes: the SHA-256 of
// both documents (see sourceDigest) plus the same options digest. It
// is the first lookup level, checked before anything is parsed. The
// same bytes under the same options parse to the same trees under the
// server's fixed limits, and only sources that parsed within those
// limits are ever stored, so a source hit may skip the parse. SHA-256
// rather than a cheaper non-cryptographic hash, so a crafted pair
// cannot alias another request's entry; a digest rather than the
// sources themselves, so an entry costs 32 bytes of key at any
// document size.
type sourceKey struct {
	digest [sha256.Size]byte
	opts   cacheOpts
}

// cacheOpts is the options digest of the key: a comparable struct of
// the exact fields that influence the response, so distinct option
// sets can never alias (a hashed digest could, in principle).
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

// diffCache is the LRU of rendered diff responses — the serving-layer
// tier of the fingerprint ladder. It is one cache with two indexes:
// each entry lives under its content key and under one source key, the
// latest that reached it, so the capacity counts entries, not keys.
// Only successful, non-degraded responses are stored (a degraded result
// reflects the budget pressure of its moment, not the documents).
// Hit/miss/eviction counters land in the server Metrics for /metrics;
// a request counts one hit or one miss, whichever level answers it.
type diffCache struct {
	mu       sync.Mutex
	max      int
	lru      *list.List // front = most recently used; values are *cacheEntry
	byKey    map[cacheKey]*list.Element
	bySource map[sourceKey]*list.Element
	met      *Metrics
}

type cacheEntry struct {
	key  cacheKey
	src  sourceKey
	resp DiffResponse
}

func newDiffCache(max int, met *Metrics) *diffCache {
	return &diffCache{
		max:      max,
		lru:      list.New(),
		byKey:    make(map[cacheKey]*list.Element),
		bySource: make(map[sourceKey]*list.Element),
		met:      met,
	}
}

// getSource returns the response stored for byte-identical sources. A
// miss is not counted: the request goes on to parse and get, which
// counts its outcome.
func (c *diffCache) getSource(src sourceKey) (DiffResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bySource[src]
	if !ok {
		return DiffResponse{}, false
	}
	return c.hit(el), true
}

// get returns the response stored for content key k. A hit re-points
// the entry's source key to src, the request that just reached it.
func (c *diffCache) get(k cacheKey, src sourceKey) (DiffResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.met.CacheMisses.Add(1)
		return DiffResponse{}, false
	}
	c.setSource(el, src)
	return c.hit(el), true
}

// hit refreshes el's recency and returns its response by value; the
// caller may set flags (Cached) on its copy. The interior Script/Delta
// allocations are shared across hits and are never mutated after store.
func (c *diffCache) hit(el *list.Element) DiffResponse {
	c.lru.MoveToFront(el)
	c.met.CacheHits.Add(1)
	return el.Value.(*cacheEntry).resp
}

// setSource makes src the source key of el's entry, dropping the one it
// had.
func (c *diffCache) setSource(el *list.Element, src sourceKey) {
	e := el.Value.(*cacheEntry)
	if e.src != src {
		delete(c.bySource, e.src)
		e.src = src
	}
	c.bySource[src] = el
}

// put stores resp under both keys, evicting the least-recently-used
// entry, and both its keys, when the cache is full.
func (c *diffCache) put(k cacheKey, src sourceKey, resp DiffResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.setSource(el, src)
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: k, src: src, resp: resp})
	c.byKey[k] = el
	c.bySource[src] = el
	if c.lru.Len() > c.max {
		oldest := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.byKey, oldest.key)
		delete(c.bySource, oldest.src)
		c.met.CacheEvictions.Add(1)
	}
	c.met.CacheSize.Store(int64(c.lru.Len()))
}

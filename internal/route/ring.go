// Package route is ladiffd's scale-out tier: a consistent-hash router
// that shards the document API across a set of replica servers. A
// document lives on its ring owner alone; stateless requests keep
// serving through replica failures.
//
// The design splits into three layers:
//
//   - Ring (this file): a static consistent-hash ring with virtual
//     nodes. Pure data — it knows nothing about health. For every key
//     it yields the owner and a deterministic failover chain (the
//     distinct replicas in ring order from the key's hash), with the
//     property that skipping dead replicas while walking the chain
//     lands on exactly the replica that would own the key if the dead
//     replicas' virtual nodes were removed from the ring. Stateless
//     failover therefore moves only the keys the dead replica owned,
//     and re-admission moves them back — bounded key movement in both
//     directions.
//   - replica/prober (health.go): per-replica liveness, combining
//     periodic /readyz probes (rise/fall hysteresis) with a
//     consecutive-failure circuit breaker fed by live traffic.
//   - Router (router.go): the HTTP proxy that puts the two together.
//     Document routes go to their owner or fail closed with 503
//     owner_unavailable; stateless routes get per-attempt deadlines,
//     one failover hop when idempotent, and back-pressure pass-through.
package route

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringPoint is one virtual node: a position on the hash circle owned by
// a replica.
type ringPoint struct {
	hash    uint64
	replica int // index into Ring.replicas
}

// Ring is an immutable consistent-hash ring over a set of replicas,
// each contributing vnodes virtual nodes. Ownership changes only when
// the replica set itself changes; health is layered on top by walking
// Successors and skipping dead replicas.
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by hash
}

// NewRing builds a ring over replicas with vnodes virtual nodes each.
// Replica order does not affect ownership (positions come from hashing
// the replica name), so every router over the same set agrees on every
// key regardless of flag order.
func NewRing(replicas []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
	}
	for i, rep := range r.replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", rep, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical hashes (astronomically rare, but the fuzzer will
		// find them if replica names collide): break the tie by name so
		// ownership stays deterministic across rings built in any order.
		return r.replicas[r.points[a].replica] < r.replicas[r.points[b].replica]
	})
	return r
}

// hash64 is FNV-64a with a 64-bit avalanche finalizer. FNV is stable
// across processes and Go versions (every router instance must agree
// on ownership), but on near-identical inputs — replica URLs differing
// in one port digit, vnode labels differing in a counter — its raw
// output clusters enough to skew ring shares badly. The finalizer
// (murmur-style xor-shift-multiply) spreads those clusters over the
// whole circle without giving up determinism.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Replicas returns the replica set (in construction order).
func (r *Ring) Replicas() []string { return r.replicas }

// start returns the index of the first ring point at or after key's
// hash (wrapping past the top of the circle).
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the replica owning key: the replica of the first
// virtual node clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.replicas[r.points[r.start(key)].replica]
}

// Successors returns every replica in deterministic failover order for
// key: the owner first, then each further replica in the order its
// first virtual node appears clockwise from the key's hash. The chain
// contains every replica exactly once. Walking it and skipping dead
// replicas yields the same answer as Owner on a ring with the dead
// replicas' virtual nodes removed — the property the fuzzer pins.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seen := make([]bool, len(r.replicas))
	chain := make([]string, 0, len(r.replicas))
	start := r.start(key)
	for i := 0; i < len(r.points) && len(chain) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			chain = append(chain, r.replicas[p.replica])
		}
	}
	return chain
}

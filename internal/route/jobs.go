package route

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Async-job routing: a job lives in exactly one replica's job store,
// so its ID must keep routing to that replica for as long as the job
// is pollable. The submit is relayed by body hash (same affinity as
// the equivalent synchronous diff), the 202 is inspected for the job
// ID, and the ID→replica pin is remembered in a bounded TTL map.
// Polls and cancels follow the pin, to that replica alone; an unknown
// ID (router restart, pin evicted) falls back to asking every replica,
// first non-404 answer wins and re-pins.

const (
	// maxJobPins bounds the pin map; at capacity the sweep evicts
	// expired pins first, then arbitrary ones. An evicted pin is not a
	// lost job — the fan-out fallback rediscovers it.
	maxJobPins = 4096
	// jobPinTTL should outlive the replicas' job retention (JobTTL,
	// default 5m) so a pin never dies before its job does.
	jobPinTTL = 30 * time.Minute
)

type jobPin struct {
	url     string
	expires time.Time
}

type jobPins struct {
	mu sync.Mutex
	m  map[string]jobPin
}

func (p *jobPins) pin(id, url string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]jobPin)
	}
	if len(p.m) >= maxJobPins {
		for k, v := range p.m {
			if !v.expires.After(now) {
				delete(p.m, k)
			}
		}
		for k := range p.m { // still full: drop arbitrary pins
			if len(p.m) < maxJobPins {
				break
			}
			delete(p.m, k)
		}
	}
	p.m[id] = jobPin{url: url, expires: now.Add(jobPinTTL)}
}

func (p *jobPins) lookup(id string, now time.Time) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pin, ok := p.m[id]
	if !ok || !pin.expires.After(now) {
		return "", false
	}
	return pin.url, true
}

// proxyJobSubmit relays POST /v1/jobs/diff to the body's replica. A
// submit is NOT idempotent — replaying it could create two jobs — so
// there is no failover: one replica, one attempt, and a transient
// failure surfaces to the client, whose retry makes the
// duplicate-or-not decision explicitly.
func (rt *Router) proxyJobSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	last, n := rt.forward(r, rt.ring.Successors(shardKey(r, body)), body, 1, false)
	if n == 0 {
		rt.noReplicas(w)
		return
	}
	if last.resp == nil {
		last.cancel()
		rt.met.failed.Add(1)
		writeError(w, http.StatusBadGateway, "upstream_unreachable",
			fmt.Sprintf("job submit failed: %v", last.err))
		return
	}
	defer last.cancel()
	defer last.resp.Body.Close()
	respBody, err := io.ReadAll(last.resp.Body)
	if err != nil {
		rt.met.failed.Add(1)
		writeError(w, http.StatusBadGateway, "upstream_unreachable",
			"reading job submit response: "+err.Error())
		return
	}
	if last.resp.StatusCode == http.StatusAccepted {
		var st struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(respBody, &st) == nil && st.ID != "" {
			rt.pins.pin(st.ID, last.rep.url, time.Now())
		}
	}
	copyHeaders(w.Header(), last.resp.Header)
	w.Header().Set("X-Route-Replica", last.rep.url)
	w.WriteHeader(last.resp.StatusCode)
	w.Write(respBody)
	rt.met.relayed.Add(1)
}

// proxyJobByID routes GET/DELETE /v1/jobs/{id}. A pinned job lives on
// its replica and nowhere else, so the request goes there alone; while
// that replica is not live the answer is 503 owner_unavailable, since
// any other replica could only say 404 about a job that still exists.
// Without a pin every replica is asked: the first non-404 answer wins
// (and re-pins), and 404 is relayed only when every replica answered
// it.
func (rt *Router) proxyJobByID(w http.ResponseWriter, r *http.Request, body []byte) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	now := time.Now()
	if url, ok := rt.pins.lookup(id, now); ok {
		rt.proxyOwned(w, r, body, url, false)
		return
	}

	var notFound attemptResult
	missed := false
	for _, u := range rt.ring.Replicas() {
		res, n := rt.forward(r, []string{u}, body, 1, false)
		if n == 0 || res.failedTransiently() {
			res.discard()
			missed = true
			continue
		}
		notFound.discard()
		if res.resp.StatusCode != http.StatusNotFound {
			rt.pins.pin(id, u, now)
			rt.relay(w, res, false)
			return
		}
		notFound = res
	}
	if missed || notFound.resp == nil {
		notFound.discard()
		rt.ownerUnavailable(w, "a replica that may hold this job is unavailable")
		return
	}
	rt.relay(w, notFound, false)
}

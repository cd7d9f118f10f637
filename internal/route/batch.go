package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"unicode/utf8"
)

// Batch routing: POST /v1/diff/batch is split per item so each pair
// keeps the same replica affinity it would have as a single request —
// the point of body-hash routing is diff-cache locality, and a batch
// that landed wholesale on one replica would cold-miss every pair the
// ring had warmed elsewhere. Items are grouped by their pair key, each
// group is forwarded as a sub-batch to its owner (with the usual
// one-hop failover), and the sub-responses are merged back in request
// order. A group whose every attempt fails degrades to per-item errors
// — partial-failure semantics survive the scatter.

// batchItemIn is the router's minimal view of one batch item: just
// enough to compute the pair's ring key and spot duplicate IDs. The
// raw bytes are forwarded untouched.
type batchItemIn struct {
	ID     string `json:"id"`
	Format string `json:"format"`
	Old    string `json:"old"`
	New    string `json:"new"`
}

// batchItemOut is one item's result as relayed from a replica (or
// synthesized on total group failure). Raw sub-objects pass through
// undecoded, so the router cannot drift from the replica's wire form.
type batchItemOut struct {
	ID       string          `json:"id,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    json.RawMessage `json:"error,omitempty"`
}

// itemKey is the ring key of one batch item's pair. It differs from
// the whole-body key a single /v1/diff request hashes to, but it is
// deterministic per (format, old, new), which is what cache affinity
// needs: the same pair in any batch, any order, lands on one replica.
func itemKey(it batchItemIn) string {
	return fmt.Sprintf("body:%x", hash64(it.Format+"\x00"+it.Old+"\x00"+it.New))
}

// syntheticError builds the wire form of an ItemError the replicas
// themselves would send, for items whose group never got an answer.
func syntheticError(status int, code, msg string) json.RawMessage {
	b, _ := json.Marshal(struct {
		Status  int    `json:"status"`
		Code    string `json:"code"`
		Message string `json:"message"`
	}{status, code, msg})
	return b
}

// proxyBatch scatters one batch request across the ring. Requests the
// router cannot (or must not) split — undecodable bodies (invalid UTF-8
// too, which json.Unmarshal would accept), empty item lists, items that
// are not objects, duplicate correlation IDs — fall through to plain
// body-hash proxying, so the owning replica issues the exact validation
// verdict a single-replica deployment would.
func (rt *Router) proxyBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var req struct {
		Items []json.RawMessage `json:"items"`
	}
	if !utf8.Valid(body) || json.Unmarshal(body, &req) != nil || len(req.Items) == 0 {
		rt.proxy(w, r, body)
		return
	}
	items := make([]batchItemIn, len(req.Items))
	seen := make(map[string]struct{}, len(req.Items))
	for i, raw := range req.Items {
		if json.Unmarshal(raw, &items[i]) != nil {
			rt.proxy(w, r, body)
			return
		}
		if id := items[i].ID; id != "" {
			if _, dup := seen[id]; dup {
				rt.proxy(w, r, body)
				return
			}
			seen[id] = struct{}{}
		}
	}

	// Group by pair key, remembering each item's original slot.
	type group struct {
		key  string
		idx  []int
		raws []json.RawMessage
	}
	order := make([]string, 0, len(items))
	groups := make(map[string]*group, len(items))
	for i, it := range items {
		k := itemKey(it)
		g, ok := groups[k]
		if !ok {
			g = &group{key: k}
			groups[k] = g
			order = append(order, k)
		}
		g.idx = append(g.idx, i)
		g.raws = append(g.raws, req.Items[i])
	}

	out := make([]batchItemOut, len(items))
	var wg sync.WaitGroup
	for _, k := range order {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			rt.forwardGroup(r, g.key, g.raws, g.idx, items, out)
		}(groups[k])
	}
	wg.Wait()

	succeeded, failed := 0, 0
	for i := range out {
		if out[i].Error != nil {
			failed++
		} else {
			succeeded++
		}
	}
	rt.met.relayed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Items     []batchItemOut `json:"items"`
		Succeeded int            `json:"succeeded"`
		Failed    int            `json:"failed"`
	}{out, succeeded, failed})
}

// forwardGroup sends one sub-batch to its key's replica (failing over
// once, like any idempotent request) and writes each item's result
// into its original slot in out. On total failure every item in the
// group gets the same error: the replica's own verdict when one
// answered, a synthesized 502/503 otherwise.
func (rt *Router) forwardGroup(r *http.Request, key string, raws []json.RawMessage, idx []int, items []batchItemIn, out []batchItemOut) {
	fail := func(raw json.RawMessage) {
		for _, i := range idx {
			out[i] = batchItemOut{ID: items[i].ID, Error: raw}
		}
	}
	sub, err := json.Marshal(struct {
		Items []json.RawMessage `json:"items"`
	}{raws})
	if err != nil {
		fail(syntheticError(http.StatusInternalServerError, "internal", err.Error()))
		return
	}

	last, n := rt.forward(r, rt.ring.Successors(key), sub, 2, false)
	if n == 0 {
		fail(syntheticError(http.StatusServiceUnavailable, "no_replicas", "no live replica for batch items"))
		return
	}
	defer last.discard()
	if last.resp == nil {
		fail(syntheticError(http.StatusBadGateway, "upstream_unreachable",
			fmt.Sprintf("all attempts failed: %v", last.err)))
		return
	}
	if last.resp.StatusCode != http.StatusOK {
		// The replica rejected the whole sub-batch (queue overflow while
		// draining, size guard, ...): its envelope becomes every item's
		// error, status preserved.
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		code, msg := "upstream_error", fmt.Sprintf("replica returned %d", last.resp.StatusCode)
		if json.NewDecoder(last.resp.Body).Decode(&envelope) == nil && envelope.Error.Code != "" {
			code, msg = envelope.Error.Code, envelope.Error.Message
		}
		fail(syntheticError(last.resp.StatusCode, code, msg))
		return
	}
	var sr struct {
		Items []batchItemOut `json:"items"`
	}
	if err := json.NewDecoder(last.resp.Body).Decode(&sr); err != nil || len(sr.Items) != len(idx) {
		fail(syntheticError(http.StatusBadGateway, "upstream_unreachable",
			"replica sub-batch response did not match the sub-batch"))
		return
	}
	for j, i := range idx {
		out[i] = sr.Items[j]
		out[i].ID = items[i].ID // echo even if the replica omitted it
	}
}

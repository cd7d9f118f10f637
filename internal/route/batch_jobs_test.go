package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/testleak"
)

// postJSON sends one JSON request through base and returns the decoded
// status and raw body.
func postJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, _ := http.NewRequest(method, url, rd)
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// batchItemFor builds a valid text diff item whose pair key routes to
// the given replica, by varying the document content until the ring
// agrees.
func batchItemFor(t *testing.T, ring *Ring, owner, id string) client.BatchDiffItem {
	t.Helper()
	for i := 0; i < 10000; i++ {
		it := client.BatchDiffItem{ID: id}
		it.Format = "text"
		it.Old = fmt.Sprintf("The old paragraph number %d sits here.", i)
		it.New = fmt.Sprintf("The new paragraph number %d sits here, changed.", i)
		if ring.Owner(itemKey(batchItemIn{Format: it.Format, Old: it.Old, New: it.New})) == owner {
			return it
		}
	}
	t.Fatalf("no batch item found owned by %s", owner)
	return client.BatchDiffItem{}
}

// TestRouterBatchSplit: a batch is scattered per item key, every item
// succeeds, results come back in request order, and the replica-side
// counters show at least two replicas shared the work.
func TestRouterBatchSplit(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	var replicas []string
	for i := 0; i < 3; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// Two items pinned to each replica: the split is guaranteed to
	// scatter across all three.
	var req client.BatchDiffRequest
	for i, u := range replicas {
		req.Items = append(req.Items,
			batchItemFor(t, rt.ring, u, fmt.Sprintf("a-%d", i)),
			batchItemFor(t, rt.ring, u, fmt.Sprintf("b-%d", i)))
	}
	resp, data := postJSON(t, http.MethodPost, router.URL+"/v1/diff/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out client.BatchDiffResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if out.Succeeded != len(req.Items) || out.Failed != 0 {
		t.Fatalf("succeeded=%d failed=%d, want %d/0: %s", out.Succeeded, out.Failed, len(req.Items), data)
	}
	for i, item := range out.Items {
		if item.ID != req.Items[i].ID {
			t.Fatalf("item %d: id %q out of order, want %q", i, item.ID, req.Items[i].ID)
		}
		if item.Response == nil || item.Error != nil {
			t.Fatalf("item %d (%s): no response: %+v", i, item.ID, item.Error)
		}
	}

	// Each replica must have served its own pairs as a sub-batch.
	sawBatch := 0
	var totalItems int64
	for _, u := range replicas {
		resp, data := postJSON(t, http.MethodGet, u+"/metrics", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica metrics: %d", resp.StatusCode)
		}
		var m struct {
			Batch struct {
				Requests int64 `json:"batch_requests_total"`
				Items    int64 `json:"batch_items_total"`
			} `json:"batch"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("decoding replica metrics: %v", err)
		}
		if m.Batch.Requests > 0 {
			sawBatch++
		}
		totalItems += m.Batch.Items
	}
	if sawBatch != 3 {
		t.Errorf("batch sub-requests reached %d replicas, want 3", sawBatch)
	}
	if totalItems != int64(len(req.Items)) {
		t.Errorf("replicas saw %d batch items total, want %d", totalItems, len(req.Items))
	}
}

// TestRouterBatchPartialFailure: an invalid item fails alone with the
// replica's own envelope; the rest of the batch still succeeds.
func TestRouterBatchPartialFailure(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	var replicas []string
	for i := 0; i < 2; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	good := batchItemFor(t, rt.ring, replicas[0], "good")
	bad := client.BatchDiffItem{ID: "bad"}
	bad.Format = "no-such-format"
	bad.Old, bad.New = "x", "y"
	resp, data := postJSON(t, http.MethodPost, router.URL+"/v1/diff/batch",
		client.BatchDiffRequest{Items: []client.BatchDiffItem{good, bad}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out client.BatchDiffResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Succeeded != 1 || out.Failed != 1 {
		t.Fatalf("succeeded=%d failed=%d, want 1/1: %s", out.Succeeded, out.Failed, data)
	}
	if out.Items[0].Error != nil || out.Items[1].Error == nil {
		t.Fatalf("wrong item failed: %s", data)
	}
	if out.Items[1].Error.Status != http.StatusBadRequest || out.Items[1].Error.Code != "bad_request" {
		t.Fatalf("bad item error = %+v, want 400 bad_request", out.Items[1].Error)
	}
}

// TestRouterBatchDeadOwner: items whose owner replica is ejected fail
// over to the ring successor instead of failing the batch.
func TestRouterBatchDeadOwner(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	var replicas []string
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
		servers = append(servers, ts)
	}
	rt := newTestRouter(t, Config{Replicas: replicas, Fall: 1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	item := batchItemFor(t, rt.ring, replicas[0], "orphan")
	servers[0].Close()
	waitFor(t, "owner ejection", func() bool { return !rt.reps[replicas[0]].Healthy() })

	resp, data := postJSON(t, http.MethodPost, router.URL+"/v1/diff/batch",
		client.BatchDiffRequest{Items: []client.BatchDiffItem{item}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out client.BatchDiffResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Succeeded != 1 {
		t.Fatalf("item did not fail over to the live replica: %s", data)
	}
}

// TestRouterJobPinning: a submitted job's polls and cancel land on the
// replica that owns it — via the pin, and via the fan-out fallback
// when the pin is lost — and a job whose replica is down is reported
// unavailable, never gone.
func TestRouterJobPinning(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	var replicas []string
	servers := map[string]*httptest.Server{}
	for i := 0; i < 3; i++ {
		_, ts := newReplicaServer(t)
		replicas = append(replicas, ts.URL)
		servers[ts.URL] = ts
	}
	rt := newTestRouter(t, Config{Replicas: replicas})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	var sub client.JobSubmitRequest
	sub.Format = "text"
	sub.Old = "The original paragraph stays small."
	sub.New = "The modified paragraph stays small too."
	resp, data := postJSON(t, http.MethodPost, router.URL+"/v1/jobs/diff", sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	owner := resp.Header.Get("X-Route-Replica")
	var st client.JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		t.Fatalf("bad 202 body: %v %s", err, data)
	}
	if url, ok := rt.pins.lookup(st.ID, time.Now()); !ok || url != owner {
		t.Fatalf("pin = %q,%v after submit, want %q", url, ok, owner)
	}

	poll := func() client.JobStatus {
		resp, data := postJSON(t, http.MethodGet, router.URL+"/v1/jobs/"+st.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Route-Replica"); got != owner {
			t.Fatalf("poll served by %s, want pinned %s", got, owner)
		}
		var cur client.JobStatus
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatalf("decoding poll: %v", err)
		}
		return cur
	}
	waitFor(t, "job completion", func() bool { return poll().Status == "done" })
	if got := poll(); got.Response == nil || got.Response.Stats.OldNodes == 0 {
		t.Fatalf("done job has no result: %+v", got)
	}

	// Losing the pin (router restart) must not lose the job: the
	// fan-out finds the owner and re-pins.
	rt.pins.mu.Lock()
	rt.pins.m = nil
	rt.pins.mu.Unlock()
	if got := poll(); got.Status != "done" {
		t.Fatalf("fan-out poll = %q, want done", got.Status)
	}
	if url, ok := rt.pins.lookup(st.ID, time.Now()); !ok || url != owner {
		t.Fatalf("fan-out did not re-pin: %q %v", url, ok)
	}

	// Cancel after terminal is an idempotent no-op reporting the state.
	resp, data = postJSON(t, http.MethodDelete, router.URL+"/v1/jobs/"+st.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp.StatusCode, data)
	}
	var canceled client.JobStatus
	if err := json.Unmarshal(data, &canceled); err != nil || canceled.Status != "done" {
		t.Fatalf("cancel of done job = %s", data)
	}

	// An unknown ID 404s after asking everyone.
	resp, _ = postJSON(t, http.MethodGet, router.URL+"/v1/jobs/job-nope-404", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}

	// The owner dies. Its job still exists, so neither the pinned poll
	// nor a pin-lost fan-out (where the other replicas can only say 404)
	// may report it gone.
	servers[owner].Close()
	waitFor(t, "owner ejection", func() bool { return !rt.reps[owner].Healthy() })
	for _, how := range []string{"pinned", "pin lost"} {
		if how == "pin lost" {
			rt.pins.mu.Lock()
			rt.pins.m = nil
			rt.pins.mu.Unlock()
		}
		resp, data = postJSON(t, http.MethodGet, router.URL+"/v1/jobs/"+st.ID, nil)
		if resp.StatusCode != http.StatusServiceUnavailable || errorCode(data) != "owner_unavailable" {
			t.Errorf("%s poll with the owner down: status %d %s, want 503 owner_unavailable", how, resp.StatusCode, data)
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ladiff/internal/gen"
)

// jobHelpers: submit/poll/cancel through the HTTP surface.

func submitJob(t *testing.T, ts *httptest.Server, req JobSubmitRequest) JobStatus {
	t.Helper()
	status, body, _ := postJSON(t, ts, "/v1/jobs/diff", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Status != "queued" {
		t.Fatalf("202 body = %+v, want a queued job with an id", st)
	}
	return st
}

func jobHTTP(t *testing.T, ts *httptest.Server, method, id string) (int, JobStatus) {
	t.Helper()
	req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// TestJobLifecycleHTTP: submit → poll to done with a response, and a
// cancel after the fact is a no-op reporting "done". That the response
// is the synchronous diff is the conformance matrix's job column.
func TestJobLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = renderPair(t, gen.Classes()[0], 701)

	st := submitJob(t, ts, req)
	waitFor(t, "job completion", func() bool {
		code, cur := jobHTTP(t, ts, http.MethodGet, st.ID)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if cur.Status == "done" && cur.Response == nil {
			t.Fatal("done job carries no response")
		}
		return cur.Status == "done"
	})

	code, after := jobHTTP(t, ts, http.MethodDelete, st.ID)
	if code != http.StatusOK || after.Status != "done" {
		t.Errorf("cancel of done job = %d %q, want 200 done", code, after.Status)
	}
}

// TestJobCancelRunningHTTP: a job blocked mid-pipeline cancels
// immediately; the poll sees "canceled", never a result.
func TestJobCancelRunningHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	openGate := installGate(t, s)
	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "An original sentence sits here.", "A changed sentence sits here."
	st := submitJob(t, ts, req)
	waitFor(t, "job running", func() bool { return s.met.Jobs.Running.Load() == 1 })

	code, canceled := jobHTTP(t, ts, http.MethodDelete, st.ID)
	if code != http.StatusOK || canceled.Status != "canceled" {
		t.Fatalf("cancel = %d %q, want 200 canceled", code, canceled.Status)
	}
	openGate()
	waitFor(t, "runner exit", func() bool { return s.met.Jobs.Running.Load() == 0 })
	if _, cur := jobHTTP(t, ts, http.MethodGet, st.ID); cur.Status != "canceled" || cur.Response != nil {
		t.Errorf("canceled job polls as %q (response %v), want canceled/nil", cur.Status, cur.Response)
	}
}

// TestJobTTLExpiryHTTP: finished jobs stay pollable for JobTTL, then
// 404 and count expired.
func TestJobTTLExpiryHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{JobTTL: 30 * time.Millisecond})
	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "The sentence before the change.", "The sentence after the change."
	st := submitJob(t, ts, req)
	waitFor(t, "job completion", func() bool {
		code, cur := jobHTTP(t, ts, http.MethodGet, st.ID)
		return code == http.StatusOK && cur.Status == "done"
	})
	waitFor(t, "job expiry", func() bool {
		code, _ := jobHTTP(t, ts, http.MethodGet, st.ID)
		return code == http.StatusNotFound
	})
	if got := s.met.Jobs.Expired.Load(); got != 1 {
		t.Errorf("jobs_expired_total = %d, want 1", got)
	}
}

// TestJobStoreFullHTTP: at MaxJobs resident jobs a submit sheds with
// 429 jobs_full + Retry-After rather than queueing unboundedly.
func TestJobStoreFullHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1})
	installGate(t, s)
	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "One sentence to diff in place.", "One sentence to diff in place, edited."
	submitJob(t, ts, req)

	status, body, hdr := postJSON(t, ts, "/v1/jobs/diff", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 jobs_full without Retry-After")
	}
	if got := s.met.Jobs.Rejected.Load(); got != 1 {
		t.Errorf("jobs rejected_total = %d, want 1", got)
	}
}

// TestJobWebhookRetriesThrough503: the completion webhook survives a
// flapping endpoint — first attempt 503, retry delivers — and the
// delivered body is the job's terminal status.
func TestJobWebhookRetriesThrough503(t *testing.T) {
	s, ts := newTestServer(t, Config{WebhookBackoff: time.Millisecond})
	var (
		mu    sync.Mutex
		calls int
		got   JobStatus
	)
	delivered := make(chan struct{})
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		close(delivered)
	}))
	defer hook.Close()

	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "The paragraph before its edit.", "The paragraph after its edit."
	req.Webhook = hook.URL
	st := submitJob(t, ts, req)

	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("webhook never delivered")
	}
	if got.ID != st.ID || got.Status != "done" || got.Response == nil {
		t.Errorf("webhook delivered %+v, want done status for %s with a response", got, st.ID)
	}
	waitFor(t, "delivery counter", func() bool { return s.met.WebhookDeliveries.Load() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("webhook saw %d calls, want 2 (503 then 200)", calls)
	}
}

// TestJobWebhookInvalidURL: relative URLs and non-http schemes are
// refused at submit time — the SSRF gate documented in README.
func TestJobWebhookInvalidURL(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, hook := range []string{"/relative", "ftp://host/x", "http://", "::bad::"} {
		var req JobSubmitRequest
		req.Format = "text"
		req.Old, req.New = "a", "b"
		req.Webhook = hook
		status, body, _ := postJSON(t, ts, "/v1/jobs/diff", req)
		if status != http.StatusBadRequest {
			t.Errorf("webhook %q: status %d, want 400: %s", hook, status, body)
		}
	}
}

// TestJobCanceledNeverDeliversWebhook: cancellation suppresses the
// completion webhook entirely — no request, no delivery counter.
func TestJobCanceledNeverDeliversWebhook(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	openGate := installGate(t, s)
	var hookCalls int
	var mu sync.Mutex
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hookCalls++
		mu.Unlock()
	}))
	defer hook.Close()

	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "Before the cancel lands.", "After the cancel lands."
	req.Webhook = hook.URL
	st := submitJob(t, ts, req)
	waitFor(t, "job running", func() bool { return s.met.Jobs.Running.Load() == 1 })
	if code, canceled := jobHTTP(t, ts, http.MethodDelete, st.ID); code != http.StatusOK || canceled.Status != "canceled" {
		t.Fatalf("cancel = %d %q", code, canceled.Status)
	}
	openGate()

	// Drain everything that could still deliver, then look.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hookCalls != 0 || s.met.WebhookDeliveries.Load() != 0 {
		t.Errorf("canceled job delivered a webhook: calls=%d deliveries=%d",
			hookCalls, s.met.WebhookDeliveries.Load())
	}
}

// TestJobDeadlineFails: a job whose per-item deadline expires fails
// with the same 504 envelope a synchronous request times out with.
func TestJobDeadlineFails(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	openGate := installGate(t, s)
	var req JobSubmitRequest
	req.Format = "text"
	req.Old, req.New = "Some document text to hold open.", "Some changed document text to hold open."
	req.TimeoutMs = 1
	st := submitJob(t, ts, req)
	waitFor(t, "job running", func() bool { return s.met.Jobs.Running.Load() == 1 })
	time.Sleep(10 * time.Millisecond) // let the 1ms deadline lapse while gated
	openGate()

	var done JobStatus
	waitFor(t, "job failure", func() bool {
		_, cur := jobHTTP(t, ts, http.MethodGet, st.ID)
		done = cur
		return cur.Status == "failed"
	})
	if done.Error == nil || done.Error.Status != http.StatusGatewayTimeout || done.Error.Code != "deadline_exceeded" {
		t.Errorf("failed job error = %+v, want 504 deadline_exceeded", done.Error)
	}
}

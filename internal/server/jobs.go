package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"time"

	"ladiff/internal/fault"
	"ladiff/internal/sched"
)

// A job's completion webhook gets webhookAttempts POSTs (first try and
// retries), each bounded by webhookTimeout.
const (
	webhookAttempts = 3
	webhookTimeout  = 5 * time.Second
)

// JobSubmitRequest is the body of POST /v1/jobs/diff: a full
// DiffRequest plus delivery options. The diff runs asynchronously —
// the response is 202 with a job ID to poll — which is the right shape
// for the optimal-quality engine ("zs" on large inputs runs seconds)
// where holding the connection open would just trade a 504 for a
// retry storm.
type JobSubmitRequest struct {
	DiffRequest
	// Webhook, when non-empty, is an http(s) URL that receives a POST
	// with the job's terminal JobStatus once it finishes (done or
	// failed; canceled jobs never deliver). Delivery is retried with
	// backoff; 2xx acknowledges.
	Webhook string `json:"webhook,omitempty"`
}

// JobStatus is the wire form of one job: the body of the 202, of GET
// /v1/jobs/{id}, of DELETE (cancel), and of the completion webhook.
// Response is set once Status is "done"; Error once it is "failed"
// (carrying exactly the envelope the same request would have failed
// with on /v1/diff).
type JobStatus struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Response *DiffResponse `json:"response,omitempty"`
	Error    *ItemError    `json:"error,omitempty"`
}

// jobStatus maps a store snapshot to the wire form.
func jobStatus(j sched.Job) JobStatus {
	st := JobStatus{ID: j.ID, Status: string(j.State)}
	switch j.State {
	case sched.JobDone:
		if resp, ok := j.Result.(*DiffResponse); ok {
			st.Response = resp
		}
	case sched.JobFailed:
		if ierr, ok := j.Result.(*ItemError); ok {
			st.Error = ierr
		} else if j.Err != nil {
			st.Error = &ItemError{Status: http.StatusInternalServerError, Code: "internal",
				Message: j.Err.Error()}
		}
	}
	return st
}

// validWebhook accepts absolute http/https URLs only. Everything else —
// relative URLs, other schemes (file:, gopher:...) — is refused up
// front; see the webhook security note in README.md (the daemon will
// POST to whatever host this names, so deployments that accept
// untrusted job submissions must restrict or disable webhooks).
func validWebhook(raw string) bool {
	u, err := url.Parse(raw)
	if err != nil {
		return false
	}
	return (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) *ItemError {
	var req JobSubmitRequest
	if ierr := s.readJSON(w, r, &req); ierr != nil {
		return ierr
	}
	// Validate before persisting: a job that could never run must be
	// refused synchronously with the same envelope /v1/diff would use,
	// not parked and failed later.
	plan, ierr := s.planDiff(req.DiffRequest)
	if ierr != nil {
		return ierr
	}
	if req.Webhook != "" && !validWebhook(req.Webhook) {
		return s.badRequest("webhook must be an absolute http(s) URL")
	}

	timeout := s.timeout(req.TimeoutMs)
	run := func(ctx context.Context) (any, error) {
		// The deadline starts when the job acquires its worker slot —
		// the moment a synchronous request would start its own — so a
		// long queue wait does not eat the job's budget.
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		s.waitTestGate()
		resp, ierr := s.executeDiff(ctx, plan)
		if ierr != nil {
			// Keep the envelope as the result so polls see the same
			// error body a synchronous request would have gotten.
			return ierr, ierr
		}
		return resp, nil
	}
	var onTerminal func(sched.Job)
	if hook := req.Webhook; hook != "" {
		onTerminal = func(j sched.Job) {
			s.webhooks.Add(1)
			go func() {
				defer s.webhooks.Done()
				s.deliverWebhook(hook, jobStatus(j))
			}()
		}
	}

	job, err := s.jobs.Submit(run, onTerminal)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, jobStatus(job))
		return nil
	case errors.Is(err, sched.ErrJobsFull):
		return refuse(nil, http.StatusTooManyRequests, "jobs_full", "job store at capacity; retry after backoff")
	case errors.Is(err, sched.ErrJobsClosed):
		return s.draining()
	case errors.Is(err, fault.ErrInjected):
		return refuse(&s.met.Errors, http.StatusInternalServerError, "internal", "job submission failed: "+err.Error())
	}
	return s.fail(err)
}

// handleJobGet polls one job. Status reads hold no worker slot — a
// polling storm must not starve the diff traffic it is waiting on.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) *ItemError {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		return s.fail(errUnknownJob)
	}
	writeJSON(w, http.StatusOK, jobStatus(j))
	return nil
}

// handleJobCancel cancels via the job's context: a queued job
// terminalizes immediately without ever running, a running job's engine
// sees the cancellation at its next checkpoint. Canceling an
// already-terminal job is a no-op that reports the terminal state —
// DELETE is safe to retry.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) *ItemError {
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		return s.fail(errUnknownJob)
	}
	writeJSON(w, http.StatusOK, jobStatus(j))
	return nil
}

// deliverWebhook POSTs the terminal status to the job's webhook URL,
// retrying with exponential backoff until a 2xx acknowledges, the
// attempt budget runs out, or shutdown aborts the loop. Delivery is
// at-most-once per attempt and best-effort overall: the job result
// stays pollable either way, and a lost webhook is observable as
// webhook_failures in /metrics.
func (s *Server) deliverWebhook(url string, status JobStatus) {
	body, err := json.Marshal(status)
	if err != nil {
		s.met.WebhookFailures.Add(1)
		return
	}
	backoff := s.cfg.WebhookBackoff
	for attempt := 0; attempt < webhookAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-s.webhookCtx.Done():
				s.met.WebhookFailures.Add(1)
				return
			}
			backoff *= 2
		}
		if s.tryWebhook(url, body) {
			s.met.WebhookDeliveries.Add(1)
			return
		}
	}
	s.met.WebhookFailures.Add(1)
	s.log.Warn("webhook delivery failed", "url", url, "job", status.ID,
		"attempts", webhookAttempts)
}

func (s *Server) tryWebhook(url string, body []byte) bool {
	ctx, cancel := context.WithTimeout(s.webhookCtx, webhookTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

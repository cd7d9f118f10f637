package client

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"
	"unicode/utf8"

	"ladiff/internal/server"
)

// The wire types are the server's own request/response structs, so the
// client cannot drift from the API it talks to.
type (
	// DiffRequest is the body of POST /v1/diff.
	DiffRequest = server.DiffRequest
	// DiffResponse is the body of a successful POST /v1/diff.
	DiffResponse = server.DiffResponse
	// PatchRequest is the body of POST /v1/patch.
	PatchRequest = server.PatchRequest
	// PatchResponse is the body of a successful POST /v1/patch.
	PatchResponse = server.PatchResponse
	// BatchDiffRequest is the body of POST /v1/diff/batch.
	BatchDiffRequest = server.BatchDiffRequest
	// BatchDiffItem is one pair in a batch request.
	BatchDiffItem = server.BatchDiffItem
	// BatchItemResult is one item's outcome within a batch response.
	BatchItemResult = server.BatchItemResult
	// BatchDiffResponse is the body of a successful POST /v1/diff/batch.
	BatchDiffResponse = server.BatchDiffResponse
	// JobSubmitRequest is the body of POST /v1/jobs/diff.
	JobSubmitRequest = server.JobSubmitRequest
	// JobStatus is the wire form of one async job.
	JobStatus = server.JobStatus
)

// ErrInvalidUTF8 marks a request the client refused to send because a
// document in it, or the text of a patch script's operation, is not
// valid UTF-8. A JSON string carries Unicode text only: json.Marshal
// would send each invalid byte as U+FFFD, and the server would diff or
// patch a document other than the caller's.
var ErrInvalidUTF8 = errors.New("client: document is not valid UTF-8")

// checkUTF8 refuses a document that JSON cannot carry unchanged; field
// names it in the error.
func checkUTF8(field, doc string) error {
	if utf8.ValidString(doc) {
		return nil
	}
	return fmt.Errorf("%w: %s, first bad byte at offset %d", ErrInvalidUTF8, field, server.InvalidUTF8At([]byte(doc)))
}

// checkDiffDocs refuses a diff request whose old or new document is not
// valid UTF-8.
func checkDiffDocs(req DiffRequest) error {
	if err := checkUTF8("old", req.Old); err != nil {
		return err
	}
	return checkUTF8("new", req.New)
}

// Diff computes the edit script between req.Old and req.New on the
// server, retrying transient failures. Check resp.Degraded to learn
// whether the server fell back to a cheaper mode to produce it.
func (c *Client) Diff(ctx context.Context, req DiffRequest) (*DiffResponse, error) {
	if err := checkDiffDocs(req); err != nil {
		return nil, err
	}
	var resp DiffResponse
	if err := c.do(ctx, "/v1/diff", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Patch applies (or inverts) a script against req.Base on the server,
// retrying transient failures.
func (c *Client) Patch(ctx context.Context, req PatchRequest) (*PatchResponse, error) {
	if err := checkUTF8("base", req.Base); err != nil {
		return nil, err
	}
	for i, op := range req.Script {
		for _, text := range []string{string(op.Label), op.Value, op.OldValue} {
			if err := checkUTF8(fmt.Sprintf("script op %d", i+1), text); err != nil {
				return nil, err
			}
		}
	}
	var resp PatchResponse
	if err := c.do(ctx, "/v1/patch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// BatchDiff runs many diff pairs in one round trip. The batch as a
// whole is retried on transient failure; individual item failures come
// back inline in the response (partial-failure semantics), not as an
// error from this method.
func (c *Client) BatchDiff(ctx context.Context, req BatchDiffRequest) (*BatchDiffResponse, error) {
	for i, it := range req.Items {
		if err := checkDiffDocs(it.DiffRequest); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	var resp BatchDiffResponse
	if err := c.do(ctx, "/v1/diff/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitJob enqueues an async diff job and returns its 202 status
// (State "queued", carrying the job ID to poll).
func (c *Client) SubmitJob(ctx context.Context, req JobSubmitRequest) (*JobStatus, error) {
	if err := checkDiffDocs(req.DiffRequest); err != nil {
		return nil, err
	}
	var resp JobStatus
	if err := c.do(ctx, "/v1/jobs/diff", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PollJob fetches one job's current status. A finished job that has
// outlived the server's retention TTL polls as a 404 *APIError with
// code "not_found".
func (c *Client) PollJob(ctx context.Context, id string) (*JobStatus, error) {
	var resp JobStatus
	if err := c.doMethod(ctx, "GET", "/v1/jobs/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CancelJob cancels a job. Canceling an already-terminal job is a
// no-op that reports the terminal state, so CancelJob is safe to retry.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var resp JobStatus
	if err := c.doMethod(ctx, "DELETE", "/v1/jobs/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WaitJob polls a job every interval (0 means 100ms) until it reaches
// a terminal state ("done", "failed", or "canceled") or ctx expires,
// and returns the terminal status. A "failed" job is returned, not an
// error: the failure envelope is in status.Error.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	for {
		st, err := c.PollJob(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case "done", "failed", "canceled":
			return st, nil
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, fmt.Errorf("client: waiting for job %s: %w", id, err)
		}
	}
}

package client

import (
	"context"
	"fmt"
	"net/url"

	"ladiff/internal/server"
)

// Document-store wire types, shared with the server so the client
// cannot drift from the API it talks to.
type (
	// DocPutRequest is the body of PUT /v1/docs/{key}.
	DocPutRequest = server.DocPutRequest
	// DocPutResponse is the body of a successful ingest.
	DocPutResponse = server.DocPutResponse
	// DocListResponse is the body of GET /v1/docs.
	DocListResponse = server.DocListResponse
	// DocInfo is one document in the listing.
	DocInfo = server.DocInfo
	// DocVersionsResponse is the body of GET /v1/docs/{key}/versions.
	DocVersionsResponse = server.DocVersionsResponse
	// DocCheckoutResponse is the body of GET /v1/docs/{key}/versions/{n}.
	DocCheckoutResponse = server.DocCheckoutResponse
	// DocDiffResponse is the body of GET /v1/docs/{key}/diff.
	DocDiffResponse = server.DocDiffResponse
)

func docPath(key string, rest string) string {
	return "/v1/docs/" + url.PathEscape(key) + rest
}

// IngestDoc commits content as the next version of the document under
// key, retrying transient failures — safe to retry because ingest is
// idempotent: re-sending content the server already has as its head
// returns the existing version with Noop set.
func (c *Client) IngestDoc(ctx context.Context, key string, req DocPutRequest) (*DocPutResponse, error) {
	if err := checkUTF8("content", req.Content); err != nil {
		return nil, err
	}
	var resp DocPutResponse
	if err := c.doMethod(ctx, "PUT", docPath(key, ""), req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ListDocs lists the server's documents with their latest versions.
func (c *Client) ListDocs(ctx context.Context) (*DocListResponse, error) {
	var resp DocListResponse
	if err := c.doMethod(ctx, "GET", "/v1/docs", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DocVersions lists the version chain of one document.
func (c *Client) DocVersions(ctx context.Context, key string) (*DocVersionsResponse, error) {
	var resp DocVersionsResponse
	if err := c.doMethod(ctx, "GET", docPath(key, "/versions"), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CheckoutDoc retrieves version n of a document, rendered in the
// format it was ingested in.
func (c *Client) CheckoutDoc(ctx context.Context, key string, n int) (*DocCheckoutResponse, error) {
	var resp DocCheckoutResponse
	if err := c.doMethod(ctx, "GET", docPath(key, fmt.Sprintf("/versions/%d", n)), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DiffDocVersions diffs two stored versions of a document. output is
// "script" (default when empty), "delta", or "marked"; mode is "auto"
// (default), "compose", or "rediff".
func (c *Client) DiffDocVersions(ctx context.Context, key string, from, to int, output, mode string) (*DocDiffResponse, error) {
	q := url.Values{}
	q.Set("from", fmt.Sprint(from))
	q.Set("to", fmt.Sprint(to))
	if output != "" {
		q.Set("output", output)
	}
	if mode != "" {
		q.Set("mode", mode)
	}
	var resp DocDiffResponse
	if err := c.doMethod(ctx, "GET", docPath(key, "/diff?"+q.Encode()), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

package client

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ladiff/internal/edit"
	"ladiff/internal/server"
)

// newAPIServer boots a real replica for end-to-end API method tests.
func newAPIServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

func TestBatchDiffPartialFailure(t *testing.T) {
	ts := newAPIServer(t)
	c := New(Config{BaseURL: ts.URL})

	good := BatchDiffItem{ID: "good"}
	good.Format = "text"
	good.Old = "The quick brown fox jumps over the lazy dog."
	good.New = "The quick brown fox leaps over the lazy dog."
	bad := BatchDiffItem{ID: "bad"}
	bad.Format = "no-such-format"
	bad.Old, bad.New = "x", "y"

	resp, err := c.BatchDiff(context.Background(), BatchDiffRequest{Items: []BatchDiffItem{good, bad}})
	if err != nil {
		t.Fatalf("BatchDiff: %v", err)
	}
	if resp.Succeeded != 1 || resp.Failed != 1 {
		t.Fatalf("succeeded=%d failed=%d, want 1/1", resp.Succeeded, resp.Failed)
	}
	if resp.Items[0].ID != "good" || resp.Items[0].Response == nil {
		t.Errorf("good item: %+v", resp.Items[0])
	}
	if resp.Items[1].Error == nil || resp.Items[1].Error.Status != http.StatusBadRequest {
		t.Errorf("bad item error: %+v", resp.Items[1].Error)
	}
}

func TestJobSubmitWaitCancel(t *testing.T) {
	ts := newAPIServer(t)
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()

	var sub JobSubmitRequest
	sub.Format = "text"
	sub.Old = "The original paragraph sits here quietly."
	sub.New = "The revised paragraph sits here quietly, longer."
	st, err := c.SubmitJob(ctx, sub)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" || st.Status != "queued" {
		t.Fatalf("202 status = %+v, want queued with an id", st)
	}

	done, err := c.WaitJob(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if done.Status != "done" || done.Response == nil || done.Response.Stats.OldNodes == 0 {
		t.Fatalf("terminal status = %+v, want done with a response", done)
	}

	// Canceling a finished job is an idempotent no-op.
	got, err := c.CancelJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if got.Status != "done" {
		t.Errorf("cancel of done job = %q, want done", got.Status)
	}
}

func TestPollJobUnknownIs404(t *testing.T) {
	ts := newAPIServer(t)
	c := New(Config{BaseURL: ts.URL})
	_, err := c.PollJob(context.Background(), "job-nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Fatalf("PollJob unknown = %v, want 404 not_found", err)
	}
}

// TestRefusesInvalidUTF8: a document that is not valid UTF-8 is refused
// before anything is sent, by every method that carries one, where
// json.Marshal would have sent U+FFFD for the byte.
func TestRefusesInvalidUTF8(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) }))
	t.Cleanup(ts.Close)
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	bad := DiffRequest{Old: "Alpha beta.", New: "Alpha \xce beta.", Format: "text"}
	for name, call := range map[string]func() error{
		"Diff": func() error { _, err := c.Diff(ctx, bad); return err },
		"Patch": func() error {
			_, err := c.Patch(ctx, PatchRequest{Base: bad.New, Format: "text"})
			return err
		},
		"Patch script": func() error {
			_, err := c.Patch(ctx, PatchRequest{Base: bad.Old, Format: "text", Script: edit.Script{edit.Upd(3, "Alpha beta.", bad.New)}})
			return err
		},
		"BatchDiff": func() error {
			_, err := c.BatchDiff(ctx, BatchDiffRequest{Items: []BatchDiffItem{{ID: "a", DiffRequest: bad}}})
			return err
		},
		"SubmitJob": func() error { _, err := c.SubmitJob(ctx, JobSubmitRequest{DiffRequest: bad}); return err },
		"IngestDoc": func() error {
			_, err := c.IngestDoc(ctx, "k", DocPutRequest{Format: "text", Content: bad.New})
			return err
		},
	} {
		if err := call(); !errors.Is(err, ErrInvalidUTF8) {
			t.Errorf("%s: %v, want ErrInvalidUTF8", name, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
	if c.Failures() != 0 {
		t.Errorf("a refused request counted %d breaker failures", c.Failures())
	}
}

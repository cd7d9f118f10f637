package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"ladiff/internal/store"
)

// FeedEvent is one change-feed notification, the store's own wire type.
type FeedEvent = store.Event

// FeedOptions configures a feed subscription.
type FeedOptions struct {
	// Filter is a server-side delta query; only changes it selects fire
	// events. Empty means every change.
	Filter string
	// Ignore is a list of regular expressions the server strips from
	// node values before diffing for this feed, so churn they fully
	// explain (timestamps, counters) produces no events.
	Ignore []string
	// Since is the last version already seen; the server emits a
	// catch-up event when the document has moved past it.
	Since int
}

// handlerStop wraps an error returned by a WatchFeed handler so the
// reconnect loop can tell "the consumer wants out" from stream
// failures.
type handlerStop struct{ err error }

func (e *handlerStop) Error() string { return e.err.Error() }
func (e *handlerStop) Unwrap() error { return e.err }

// WatchFeed subscribes to a document's change feed and calls handler
// for every event, reconnecting with backoff across server restarts
// and dropped connections. Reconnects resume from the last seen
// version (the server's catch-up event tells the handler when versions
// were missed). It returns when ctx ends, when handler returns a
// non-nil error (returned as-is), or on a definitive API error (e.g.
// 404 for an unknown document).
func (c *Client) WatchFeed(ctx context.Context, key string, opts FeedOptions, handler func(FeedEvent) error) error {
	since := opts.Since
	attempt := 0
	for {
		err := c.streamFeed(ctx, key, opts, &since, &attempt, handler)
		var stop *handlerStop
		switch {
		case errors.As(err, &stop):
			return stop.err
		case ctx.Err() != nil:
			return ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return err
		}
		// Transient failure or clean end of stream (a draining server
		// closes feeds): back off and resubscribe from the last seen
		// version.
		var ra time.Duration
		if apiErr != nil {
			ra = apiErr.retryAfter
		}
		if attempt > 6 {
			attempt = 6 // cap the schedule; feeds retry forever
		}
		if err := c.sleep(ctx, c.backoff(attempt, ra)); err != nil {
			return err
		}
		attempt++
	}
}

// streamFeed runs one SSE connection, dispatching events until the
// stream ends. since tracks the newest version seen (for resuming);
// attempt is reset once the subscription is established.
func (c *Client) streamFeed(ctx context.Context, key string, opts FeedOptions, since, attempt *int, handler func(FeedEvent) error) error {
	q := url.Values{}
	if opts.Filter != "" {
		q.Set("filter", opts.Filter)
	}
	for _, ig := range opts.Ignore {
		q.Add("ignore", ig)
	}
	if *since > 0 {
		q.Set("since", fmt.Sprint(*since))
	}
	u := c.cfg.BaseURL + docPath(key, "/feed")
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	// The request deliberately runs on the caller's context alone: a
	// feed is long-lived, so the per-attempt timeout would sever it.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		apiErr := &APIError{Status: resp.StatusCode, retryAfter: retryAfter(resp.Header)}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		} else {
			apiErr.Code = "unknown"
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return apiErr
	}
	*attempt = 0 // connected: the backoff schedule starts over

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line: dispatch the accumulated event.
			if data.Len() == 0 {
				continue
			}
			var ev FeedEvent
			err := json.Unmarshal(data.Bytes(), &ev)
			data.Reset()
			if err != nil {
				return fmt.Errorf("client: malformed feed event: %w", err)
			}
			if ev.Type == store.EventSnapshot {
				// The snapshot pins the stream's origin on *this*
				// server. Adopting it even when it is lower than the
				// resume cursor is what makes resuming on an in-memory
				// replica that restarted empty work: its chain
				// restarted, and a cursor from the old chain would
				// otherwise pin every future resume past the new head
				// forever.
				*since = ev.Version
			} else if ev.Version > *since {
				*since = ev.Version
			}
			if err := handler(ev); err != nil {
				return &handlerStop{err: err}
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// "event:"/"id:" fields and ":" keepalive comments carry
			// nothing the JSON payload doesn't.
		}
	}
	return sc.Err() // nil: clean end of stream
}

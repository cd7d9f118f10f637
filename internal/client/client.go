// Package client is a retrying HTTP client for ladiffd, built for
// callers that outlive individual request failures: a watcher polling a
// page every few minutes should ride out a server restart or a
// transient 503, not die on it.
//
// The failure handling is layered:
//
//   - Per-attempt deadlines: each attempt gets its own timeout carved
//     out of the caller's context, so one hung connection cannot eat
//     the whole retry budget.
//   - Exponential backoff with jitter between attempts, honoring a
//     Retry-After header when the server sends one (429/503 from
//     admission control and drain both do).
//   - A consecutive-failure circuit breaker: after Breaker failures in
//     a row the client fails fast with ErrCircuitOpen for a cooldown
//     period instead of hammering a down server, then lets one probe
//     through (half-open) to test recovery.
//
// Only transient failures are retried: transport errors, 429, 502,
// 503, 504. A 400 or 422 is the caller's bug and returns immediately
// as an *APIError.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ladiff/internal/obs"
)

// ErrCircuitOpen is returned without any network I/O while the circuit
// breaker is open: the server has failed Config.Breaker consecutive
// times and the cooldown has not yet elapsed.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// APIError is a non-2xx response from ladiffd, decoded from its error
// envelope. Status is the HTTP status; Code and Message are the
// server's machine-readable code ("over_budget", "tree_too_large", …)
// and human-readable detail.
type APIError struct {
	Status  int
	Code    string
	Message string

	// retryAfter is the server's Retry-After hint, folded into the
	// backoff schedule.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ladiffd: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether the error is worth retrying: the request
// was fine, the server just couldn't take it right now.
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Retry backoff: the first retry waits baseBackoff, each later one
// twice the last, capped at maxBackoff before jitter.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// Config tunes one Client. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// BaseURL is the root of the ladiffd API, e.g. "http://localhost:8044".
	BaseURL string
	// MaxRetries is how many times a failed request is retried, so a
	// request makes at most MaxRetries+1 attempts. 0 means 3; negative
	// disables retries.
	MaxRetries int
	// RetryBudget caps the total time a request may spend across all
	// attempts and backoff sleeps: once the budget would be exceeded by
	// the next backoff, the client stops retrying and returns the last
	// error instead of sleeping past it. The budget is context-aware —
	// the caller's deadline still applies on top. 0 means no budget
	// (retries are bounded by MaxRetries and the context alone).
	RetryBudget time.Duration
	// AttemptTimeout bounds each individual attempt, independent of the
	// caller's overall context. 0 means 10s.
	AttemptTimeout time.Duration
	// Breaker is the number of consecutive failed requests (all
	// attempts exhausted) that opens the circuit breaker. 0 means 5;
	// negative disables the breaker.
	Breaker int
	// BreakerCooldown is how long the breaker stays open before
	// allowing a half-open probe. 0 means 15s.
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.Breaker == 0 {
		c.Breaker = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	return c
}

// Client is a retrying ladiffd client, safe for concurrent use.
type Client struct {
	cfg Config
	// http is a dedicated client (deliberately not http.DefaultClient,
	// so per-attempt deadlines never fight an ambient global timeout).
	httpClient *http.Client

	// sleep and now are swapped out by tests so retry schedules can be
	// asserted without real waiting.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time

	// breaker is the consecutive-failure circuit (see Breaker); its
	// clock is shared with now via New.
	breaker *Breaker

	mu  sync.Mutex
	rng *rand.Rand // jitter source, guarded by mu
}

// New returns a Client for the ladiffd instance at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:        cfg,
		httpClient: &http.Client{},
		sleep:      sleepCtx,
		now:        time.Now,
		breaker:    NewBreaker(cfg.Breaker, cfg.BreakerCooldown),
	}
	c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	// One clock: tests that freeze c.now freeze the breaker's cooldown
	// arithmetic with it.
	c.breaker.now = func() time.Time { return c.now() }
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff computes the jittered delay before retry number retry
// (0-based), taking the larger of the exponential schedule and the
// server's Retry-After hint.
func (c *Client) backoff(retry int, retryAfter time.Duration) time.Duration {
	d := baseBackoff << uint(retry)
	if d > maxBackoff || d <= 0 { // <=0: shift overflow
		d = maxBackoff
	}
	// Full jitter in [d/2, d): desynchronizes a fleet of clients
	// retrying against the same recovering server.
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// checkBreaker gates a new request on the circuit state (see Breaker).
func (c *Client) checkBreaker() error { return c.breaker.Allow() }

// report records the outcome of a whole request (after retries) into
// the breaker state.
func (c *Client) report(failed bool) { c.breaker.Report(failed) }

// Failures returns the current consecutive-failure count (used by
// tests and health displays).
func (c *Client) Failures() int { return c.breaker.Failures() }

// retryAfter parses a Retry-After header, accepting both RFC 9110
// forms: delta-seconds ("2") and an HTTP-date ("Wed, 21 Oct 2026
// 07:28:00 GMT"). ladiffd itself sends delta-seconds, but the client
// also talks to the routing tier and through intermediaries, which may
// rewrite the header into the date form. A date in the past (or
// unparseable junk) means no hint.
func retryAfter(h http.Header) time.Duration {
	return retryAfterAt(h, time.Now())
}

// retryAfterAt is retryAfter against an explicit clock, so the
// HTTP-date arithmetic is testable without real waiting.
func retryAfterAt(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// do POSTs body to path with the full retry/backoff/breaker treatment
// and decodes a 200 response into out.
func (c *Client) do(ctx context.Context, path string, body, out any) error {
	return c.doMethod(ctx, http.MethodPost, path, body, out)
}

// doMethod is do generalized over the HTTP method: the document-store
// endpoints are resource-shaped (PUT ingest, GET reads), unlike the
// original POST-only RPC pair. A nil body sends no payload.
func (c *Client) doMethod(ctx context.Context, method, path string, body, out any) error {
	if err := c.checkBreaker(); err != nil {
		return err
	}
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			c.report(false) // caller bug, not a server failure
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	// One request id for the whole logical request: every retry of it
	// carries the same X-Request-Id, so server traces and access logs
	// for the attempts correlate.
	id := obs.NewRequestID()
	// The retry-time budget is a wall-clock deadline over the whole
	// logical request: attempts and backoff sleeps both draw from it.
	var budgetEnd time.Time
	if c.cfg.RetryBudget > 0 {
		budgetEnd = c.now().Add(c.cfg.RetryBudget)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.attempt(ctx, method, path, id, payload, out)
		if lastErr == nil {
			c.report(false)
			return nil
		}
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && !apiErr.Temporary() {
			// A definitive server verdict: retrying cannot help, and it
			// is not a server-health signal either.
			c.report(false)
			return lastErr
		}
		if attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		var ra time.Duration
		if apiErr != nil {
			ra = apiErr.retryAfter
		}
		d := c.backoff(attempt, ra)
		// A sleep that would overrun the budget is pointless: the next
		// attempt could not start inside it. Stop retrying now and
		// return the last real error rather than a budget artifact.
		if !budgetEnd.IsZero() && c.now().Add(d).After(budgetEnd) {
			break
		}
		if err := c.sleep(ctx, d); err != nil {
			lastErr = err
			break
		}
	}
	c.report(true)
	return fmt.Errorf("client: %s failed after %d attempt(s): %w",
		path, c.cfg.MaxRetries+1, lastErr)
}

// attempt runs one HTTP round trip under the per-attempt deadline.
func (c *Client) attempt(ctx context.Context, method, path, id string, payload []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
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
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

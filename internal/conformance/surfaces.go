package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/route"
	"ladiff/internal/server"
	"ladiff/internal/store"
)

// Harness serves the out-of-process surfaces in process: a
// store-backed server configured with its defaults spelled out, the
// same server with the diff cache on, and a router over two zero-config
// replicas. It reaches each through internal/client, retries off.
type Harness struct {
	plain, cached, routed *client.Client
	docs                  atomic.Int64
}

// NewHarness starts the servers; tb's cleanup stops them.
func NewHarness(tb testing.TB) *Harness {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	serve := func(cfg server.Config) string {
		cfg.Logger, cfg.MaxJobs = quiet, 1<<16
		ts := httptest.NewServer(server.New(cfg).Handler())
		tb.Cleanup(ts.Close)
		return ts.URL
	}
	dial := func(url string) *client.Client {
		return client.New(client.Config{BaseURL: url, MaxRetries: -1, Breaker: -1})
	}
	st := store.New(store.Config{})
	tb.Cleanup(func() { st.Close() })
	explicit := server.Config{Store: st, MatchWorkBudget: 0, MaxTreeDepth: 10_000, MaxTreeNodes: 200_000}
	h := &Harness{plain: dial(serve(explicit)), cached: dial(serve(server.Config{DiffCacheEntries: 64}))}
	rt := route.New(route.Config{Replicas: []string{serve(server.Config{}), serve(server.Config{})}, Logger: quiet})
	ts := httptest.NewServer(rt.Handler())
	tb.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	h.routed = dial(ts.URL)
	return h
}

// Run runs p under k on one of Surfaces. A refusal comes back as the
// client's *client.APIError, or a batch item's or job's
// *server.ItemError (see refusal).
func (h *Harness) Run(ctx context.Context, surface string, p Pair, k Knob) (Run, error) {
	if surface == "library" {
		return Library(ctx, p, k)
	}
	c, via := h.plain, surface
	if s, ok := strings.CutPrefix(surface, "routed-"); ok {
		c, via = h.routed, s
	} else if k.Cache != "" {
		c = h.cached
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return map[string]func(context.Context, *client.Client, Pair, Knob) (Run, error){
		"diff": diffVia, "batch": batchVia, "job": jobVia, "store": h.store,
	}[via](ctx, c, p, k)
}

// outputs are the three renderings every HTTP cell asks for.
var outputs = []string{"script", "delta", "marked"}

func request(p Pair, k Knob, output string) server.DiffRequest {
	return server.DiffRequest{Old: p.Old, New: p.New, Format: p.Format, Output: output, Matcher: k.Engine, Prune: k.Prune}
}

func diffVia(ctx context.Context, c *client.Client, p Pair, k Knob) (Run, error) {
	var resps []server.DiffResponse
	for _, out := range outputs {
		req := request(p, k, out)
		if k.Cache != "" { // the first request stores, the second hits
			if _, err := c.Diff(ctx, req); err != nil {
				return Run{}, err
			}
			if k.Cache == "source" {
				req.TimeoutMs = 60_000
			}
		}
		resp, err := c.Diff(ctx, req)
		if err != nil {
			return Run{}, err
		}
		resps = append(resps, *resp)
	}
	return fold(p, resps, k.Cache != "")
}

func batchVia(ctx context.Context, c *client.Client, p Pair, k Knob) (Run, error) {
	var req server.BatchDiffRequest
	for _, out := range outputs {
		req.Items = append(req.Items, server.BatchDiffItem{ID: out, DiffRequest: request(p, k, out)})
	}
	resp, err := c.BatchDiff(ctx, req)
	if err != nil {
		return Run{}, err
	}
	if len(resp.Items) != len(outputs) || resp.Succeeded+resp.Failed != len(outputs) {
		return Run{}, fmt.Errorf("batch answered %d items, %d+%d", len(resp.Items), resp.Succeeded, resp.Failed)
	}
	var resps []server.DiffResponse
	for i, it := range resp.Items {
		switch {
		case it.ID != outputs[i]:
			return Run{}, fmt.Errorf("batch item %d has id %q", i, it.ID)
		case it.Error != nil && resp.Failed > 0:
			return Run{}, it.Error
		case it.Response == nil || resp.Failed > 0:
			return Run{}, fmt.Errorf("batch item %q: response %v, %d failed", it.ID, it.Response, resp.Failed)
		}
		resps = append(resps, *it.Response)
	}
	return fold(p, resps, false)
}

func jobVia(ctx context.Context, c *client.Client, p Pair, k Knob) (Run, error) {
	var resps []server.DiffResponse
	for _, out := range outputs {
		st, err := c.SubmitJob(ctx, server.JobSubmitRequest{DiffRequest: request(p, k, out)})
		if err == nil {
			st, err = c.WaitJob(ctx, st.ID, time.Millisecond)
		}
		switch {
		case err != nil:
			return Run{}, err
		case st.Error != nil:
			return Run{}, st.Error
		case st.Status != "done" || st.Response == nil:
			return Run{}, fmt.Errorf("job %s ended %q without a response", st.ID, st.Status)
		}
		resps = append(resps, *st.Response)
	}
	return fold(p, resps, false)
}

// store ingests p's two documents as versions of a new key and diffs
// them in both modes: the composed script, and rediff's three outputs,
// whose script must be the composed one.
func (h *Harness) store(ctx context.Context, c *client.Client, p Pair, _ Knob) (Run, error) {
	key := fmt.Sprintf("c%d", h.docs.Add(1))
	var put *server.DocPutResponse
	for _, src := range []string{p.Old, p.New} {
		var err error
		if put, err = c.IngestDoc(ctx, key, server.DocPutRequest{Format: p.Format, Content: src}); err != nil {
			return Run{}, err
		}
	}
	rediff := map[string]*server.DocDiffResponse{}
	for _, out := range outputs {
		resp, err := c.DiffDocVersions(ctx, key, 1, put.Version, out, "rediff")
		if err != nil {
			return Run{}, err
		}
		rediff[out] = resp
	}
	compose, err := c.DiffDocVersions(ctx, key, 1, put.Version, "script", "compose")
	if r, ok := refusal(err); ok && r.Code == "rebase_boundary" {
		compose, err = rediff["script"], nil
	}
	if err != nil {
		return Run{}, err
	}
	run := Run{Script: scriptJSON(compose.Script), Delta: rediff["delta"].Delta, Marked: rediff["marked"].Document}
	if b := scriptJSON(rediff["script"].Script); !bytes.Equal(b, run.Script) {
		return Run{}, fmt.Errorf("rediff script differs from the composed one:\n%s\n%s", b, run.Script)
	}
	return run, nil
}

// refusal reads a refused request's status, code and message from the
// client's error or a batch item's or job's envelope.
func refusal(err error) (server.ItemError, bool) {
	var ae *client.APIError
	var ie *server.ItemError
	switch {
	case errors.As(err, &ae):
		return server.ItemError{Status: ae.Status, Code: ae.Code, Message: ae.Message}, true
	case errors.As(err, &ie):
		return *ie, true
	}
	return server.ItemError{}, false
}

// fold merges one surface's script, delta and marked responses into a
// Run, checking what the three must share.
func fold(p Pair, resps []server.DiffResponse, cached bool) (Run, error) {
	var run Run
	for i, r := range resps {
		if r.Format != p.Format || r.Output != outputs[i] || r.Cached != cached ||
			(i != 0 && r.Script != nil) || (i != 1 && r.Delta != nil) || (i != 2 && r.Document != "") {
			return Run{}, fmt.Errorf("%s response: format %q, output %q, cached %v, script %d ops, delta %d bytes, document %d bytes",
				outputs[i], r.Format, r.Output, r.Cached, len(r.Script), len(r.Delta), len(r.Document))
		}
		r.Stats.PhaseMicros = nil
		switch i {
		case 0:
			run.Script, run.Stats, run.Degraded, run.Reasons = scriptJSON(r.Script), &r.Stats, r.Degraded, r.DegradedReasons
			continue
		case 1:
			run.Delta = r.Delta
		case 2:
			run.Marked = r.Document
		}
		if !reflect.DeepEqual(r.Stats, *run.Stats) || r.Degraded != run.Degraded || !slices.Equal(r.DegradedReasons, run.Reasons) {
			return Run{}, fmt.Errorf("%s response reports %+v %v %v, script response %+v %v %v", outputs[i],
				r.Stats, r.Degraded, r.DegradedReasons, *run.Stats, run.Degraded, run.Reasons)
		}
	}
	return run, nil
}

// ErrorCells runs the three refused inputs — an unknown format, an
// unknown matcher, a document that does not parse — on every HTTP
// surface, and then in one batch beside a valid item, and returns the
// failures of any that do not refuse each with /v1/diff's status, code
// and message, or that touch the valid item.
func (h *Harness) ErrorCells() []error {
	var errs []error
	var wants []server.ItemError
	mixed := server.BatchDiffRequest{Items: []server.BatchDiffItem{{ID: "ok", DiffRequest: request(MinimalPair, Knob{}, "script")}}}
	for _, c := range []struct {
		p Pair
		k Knob
	}{
		{Pair{Name: "bad-format", Format: "bogus", Old: "a", New: "b"}, Knob{}},
		{Pair{Name: "bad-matcher", Format: "text", Old: "a", New: "b"}, Knob{Engine: "no-such-engine"}},
		{Pair{Name: "bad-parse", Format: "xml", Old: "<a>", New: "<b/>"}, Knob{}},
	} {
		mixed.Items = append(mixed.Items, server.BatchDiffItem{ID: c.p.Name, DiffRequest: request(c.p, c.k, "script")})
		for _, s := range Surfaces[1:] {
			if s == "store" {
				continue
			}
			_, err := h.Run(context.Background(), s, c.p, c.k)
			got, ok := refusal(err)
			if !ok {
				errs = append(errs, fmt.Errorf("%s on %s: want a refusal, got %v", c.p.Name, s, err))
			} else if s == "diff" {
				wants = append(wants, got)
			} else if got != wants[len(wants)-1] {
				errs = append(errs, fmt.Errorf("%s on %s: refused %+v, /v1/diff %+v", c.p.Name, s, got, wants[len(wants)-1]))
			}
		}
	}
	resp := &server.BatchDiffResponse{}
	ref, err := Library(context.Background(), MinimalPair, Knob{})
	if err == nil {
		resp, err = h.plain.BatchDiff(context.Background(), mixed)
	}
	if err != nil || len(resp.Items) != len(mixed.Items) || resp.Items[0].Response == nil ||
		!bytes.Equal(scriptJSON(resp.Items[0].Response.Script), ref.Script) {
		return append(errs, fmt.Errorf("mixed batch: %v %+v", err, resp))
	}
	for i, want := range wants {
		if got := resp.Items[i+1].Error; got == nil || *got != want {
			errs = append(errs, fmt.Errorf("%s in a mixed batch: %+v, want %+v", mixed.Items[i+1].ID, got, want))
		}
	}
	return errs
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ladiff"
	"ladiff/internal/fault"
	"ladiff/internal/store"
)

// The document-store endpoints, mounted when Config.Store is set:
//
//	PUT /v1/docs/{key}              ingest the next version of a document
//	GET /v1/docs                    list documents
//	GET /v1/docs/{key}/versions     list a document's version chain
//	GET /v1/docs/{key}/versions/{n} check out one version
//	GET /v1/docs/{key}/diff         diff two versions (?from=&to=)
//	GET /v1/docs/{key}/feed         SSE change feed (?filter=&ignore=&since=)
//
// Every route runs inside the server's one request lifecycle (see
// lifecycle): refused while draining, and registered in the drain gate
// until it returns. Ingest, checkout, and diff also enter a worker slot
// as /v1/diff does while they do CPU work. Feeds are long-lived, so they
// count against Config.MaxFeeds instead of holding a slot; Shutdown
// closes their subscriptions and waits for the handlers to unwind, which
// is what makes drain clean.

// DocPutRequest is the body of PUT /v1/docs/{key}.
type DocPutRequest struct {
	// Format selects the parser front end (see store.Formats). The first
	// ingest pins the document's format; later ingests must repeat it.
	Format string `json:"format"`
	// Content is the document source text.
	Content string `json:"content"`
	// TimeoutMs bounds the ingest diff; zero means the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// DocPutResponse is the body of a successful ingest.
type DocPutResponse struct {
	Key     string `json:"key"`
	Version int    `json:"version"`
	// Noop reports an idempotent ingest: the content was fingerprint-
	// identical to the current head and Version is the existing latest
	// version.
	Noop        bool           `json:"noop,omitempty"`
	Fingerprint string         `json:"fingerprint"`
	Nodes       int            `json:"nodes"`
	Ops         store.OpCounts `json:"ops"`
}

// DocInfo is one document in the GET /v1/docs listing.
type DocInfo struct {
	Key    string            `json:"key"`
	Format string            `json:"format"`
	Latest store.VersionInfo `json:"latest"`
}

// DocListResponse is the body of GET /v1/docs.
type DocListResponse struct {
	Docs []DocInfo `json:"docs"`
}

// DocVersionsResponse is the body of GET /v1/docs/{key}/versions.
type DocVersionsResponse struct {
	Key      string              `json:"key"`
	Format   string              `json:"format"`
	Versions []store.VersionInfo `json:"versions"`
}

// DocCheckoutResponse is the body of GET /v1/docs/{key}/versions/{n}:
// the requested version rendered back into the document's own format.
type DocCheckoutResponse struct {
	Key         string `json:"key"`
	Format      string `json:"format"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Document    string `json:"document"`
}

// DocDiffResponse is the body of GET /v1/docs/{key}/diff. Exactly one
// of Script, Delta, Document is populated, per the requested output.
type DocDiffResponse struct {
	Key    string `json:"key"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Format string `json:"format"`
	Output string `json:"output"`
	// Mode reports how the diff was produced: "compose" (stored delta
	// chain concatenated — exact, cheap, but not minimized) or "rediff"
	// (both versions checked out and re-diffed).
	Mode     string          `json:"mode"`
	Script   ladiff.Script   `json:"script,omitempty"`
	Delta    json.RawMessage `json:"delta,omitempty"`
	Document string          `json:"document,omitempty"`
	Ops      int             `json:"ops"`
}

func (s *Server) handleDocPut(w http.ResponseWriter, r *http.Request) *ItemError {
	var req DocPutRequest
	if ierr := s.readJSON(w, r, &req); ierr != nil {
		return ierr
	}
	if ierr := s.checkFormat(req.Format); ierr != nil {
		return ierr
	}
	ctx, cancel, ierr := s.enter(r.Context(), s.timeout(req.TimeoutMs))
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)

	res, err := s.cfg.Store.Ingest(ctx, r.PathValue("key"), req.Format, req.Content)
	if err != nil {
		return s.fail(err)
	}
	writeJSON(w, http.StatusOK, DocPutResponse{
		Key: res.Key, Version: res.Version, Noop: res.Noop,
		Fingerprint: res.Fingerprint, Nodes: res.Nodes, Ops: res.Ops,
	})
	return nil
}

func (s *Server) handleDocList(w http.ResponseWriter, r *http.Request) *ItemError {
	keys := s.cfg.Store.Keys()
	sort.Strings(keys)
	resp := DocListResponse{Docs: make([]DocInfo, 0, len(keys))}
	for _, key := range keys {
		latest, err := s.cfg.Store.Latest(key)
		if err != nil {
			continue // racing a concurrent close; skip
		}
		format, err := s.cfg.Store.Format(key)
		if err != nil {
			continue
		}
		resp.Docs = append(resp.Docs, DocInfo{Key: key, Format: format, Latest: latest})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleDocVersions(w http.ResponseWriter, r *http.Request) *ItemError {
	key := r.PathValue("key")
	versions, err := s.cfg.Store.Versions(key)
	if err != nil {
		return s.fail(err)
	}
	format, err := s.cfg.Store.Format(key)
	if err != nil {
		return s.fail(err)
	}
	writeJSON(w, http.StatusOK, DocVersionsResponse{Key: key, Format: format, Versions: versions})
	return nil
}

func (s *Server) handleDocCheckout(w http.ResponseWriter, r *http.Request) *ItemError {
	key := r.PathValue("key")
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		return s.badRequest("version must be an integer, got " + r.PathValue("n"))
	}
	ctx, cancel, ierr := s.enter(r.Context(), s.timeout(0))
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)

	t, info, err := s.cfg.Store.Checkout(ctx, key, n)
	if err != nil {
		return s.fail(err)
	}
	format, err := s.cfg.Store.Format(key)
	if err != nil {
		return s.fail(err)
	}
	doc, err := store.RenderDoc(format, t)
	if err != nil {
		return s.fail(fmt.Errorf("render: %w", err))
	}
	writeJSON(w, http.StatusOK, DocCheckoutResponse{
		Key: key, Format: format, Version: info.Version,
		Fingerprint: info.Fingerprint, Nodes: info.Nodes, Document: doc,
	})
	return nil
}

func (s *Server) handleDocDiff(w http.ResponseWriter, r *http.Request) *ItemError {
	key := r.PathValue("key")
	q := r.URL.Query()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		return s.badRequest("from and to must be integer version numbers")
	}
	output, ierr := s.checkOutput(q.Get("output"))
	if ierr != nil {
		return ierr
	}
	mode := q.Get("mode")
	switch mode {
	case "", "auto", "compose", "rediff":
	default:
		return s.badRequest(fmt.Sprintf("unknown mode %q (want auto, compose, or rediff)", mode))
	}
	// Delta and marked outputs need a matching between the two versions,
	// which only a fresh diff has; the composed chain is script-only.
	if mode == "compose" && output != "script" {
		return s.badRequest("mode=compose supports output=script only")
	}

	ctx, cancel, ierr := s.enter(r.Context(), s.timeout(0))
	if ierr != nil {
		return ierr
	}
	defer s.leave(cancel)

	format, err := s.cfg.Store.Format(key)
	if err != nil {
		return s.fail(err)
	}
	resp := DocDiffResponse{Key: key, From: from, To: to, Format: format, Output: output}

	if output == "script" && mode != "rediff" {
		script, ok, err := s.cfg.Store.ComposeDiff(key, from, to)
		if err != nil {
			return s.fail(err)
		}
		if ok {
			resp.Mode = "compose"
			resp.Script = script
			resp.Ops = len(script)
			writeJSON(w, http.StatusOK, resp)
			return nil
		}
		if mode == "compose" {
			return s.fail(errRebaseBoundary)
		}
	}

	res, err := s.cfg.Store.RediffVersions(ctx, key, from, to)
	if err != nil {
		return s.fail(err)
	}
	resp.Mode = "rediff"
	resp.Ops = len(res.Script)
	if resp.Script, resp.Delta, resp.Document, err = render(res, format, output); err != nil {
		return s.fail(err)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleDocFeed serves the SSE change feed. Events are written as
//
//	event: change
//	id: <version>
//	data: {...store.Event JSON...}
//
// with ": keepalive" comments on an idle stream. The stream ends when
// the client disconnects or the server drains (Shutdown closes every
// subscription).
func (s *Server) handleDocFeed(w http.ResponseWriter, r *http.Request) *ItemError {
	key := r.PathValue("key")
	q := r.URL.Query()
	since := 0
	if v := q.Get("since"); v != "" {
		var err error
		if since, err = strconv.Atoi(v); err != nil {
			return s.badRequest("since must be an integer")
		}
	}
	if n := s.feeds.Add(1); n > int64(s.cfg.MaxFeeds) {
		s.feeds.Add(-1)
		return refuse(&s.met.RejectedQueue, http.StatusTooManyRequests, "feeds_exhausted",
			fmt.Sprintf("at the limit of %d open feeds", s.cfg.MaxFeeds))
	}
	defer s.feeds.Add(-1)

	sub, err := s.cfg.Store.Subscribe(key, store.SubscribeOptions{
		Filter: q.Get("filter"),
		Ignore: q["ignore"],
		Since:  since,
	})
	if err != nil {
		return s.fail(err)
	}
	defer sub.Close()

	rc := http.NewResponseController(w)
	// Feeds are idle-by-design; a server-wide write deadline must not
	// reap them (unsupported controllers are fine — best effort).
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return nil
	}

	hb := time.NewTicker(s.cfg.FeedHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// Store closed the feeds: the server is draining.
				return nil
			}
			// Chaos checkpoint for the streaming write path: an injected
			// error terminates the stream like a broken connection would.
			if err := fault.Check(fault.ServerWrite); err != nil {
				return nil
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return nil
			}
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Version, data); err != nil {
				return nil
			}
			if err := rc.Flush(); err != nil {
				return nil
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return nil
			}
			if err := rc.Flush(); err != nil {
				return nil
			}
		case <-ctx.Done():
			return nil
		}
	}
}

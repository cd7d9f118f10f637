package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/testleak"
)

// bootStore starts the daemon fronting st and returns its base URL plus
// the stop/done channels for a clean shutdown.
func bootStore(t *testing.T, st *store.Store) (string, chan os.Signal, chan error) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(replica(server.Config{Store: st, Logger: logger}), "127.0.0.1:0", "",
			5*time.Second, logger, stop, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, stop, done
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not start listening")
	}
	return "", nil, nil
}

func shutdown(t *testing.T, stop chan os.Signal, done chan error) {
	t.Helper()
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after signal, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after signal")
	}
}

// TestServeStoreRestart runs the daemon the way -store-log runs it:
// versions ingested over HTTP survive a full stop/start cycle through
// the persistence log, an open feed drains cleanly at shutdown, and the
// restarted daemon continues the same chain.
func TestServeStoreRestart(t *testing.T) {
	defer testleak.Check(t)()
	logPath := filepath.Join(t.TempDir(), "versions.log")
	ctx := context.Background()

	// Anchored sentences keep the chain composing; only the middle
	// sentence drifts within the match threshold.
	pages := []string{
		"Opening line stays put. Second sentence here. Closing line stays put.",
		"Opening line stays put. Second sentence here today. Closing line stays put.",
		"Opening line stays put. Second sentence here today again. Closing line stays put.",
	}

	st, err := store.Open(logPath, store.Config{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, stop, done := bootStore(t, st)
	c := client.New(client.Config{BaseURL: base})

	fps := make([]string, 0, len(pages)+1)
	for i, page := range pages {
		resp, err := c.IngestDoc(ctx, "page", client.DocPutRequest{Format: "text", Content: page})
		if err != nil {
			t.Fatalf("ingest v%d: %v", i+1, err)
		}
		if resp.Version != i+1 || resp.Noop {
			t.Fatalf("ingest %d = v%d noop=%v, want v%d", i+1, resp.Version, resp.Noop, i+1)
		}
		fps = append(fps, resp.Fingerprint)
	}

	// A live feed across the shutdown: the drain closes the stream, and
	// the client's watch ends on its own context rather than spinning
	// against the stopped listener.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	watched := make(chan error, 1)
	sawSnapshot := make(chan store.Event, 1)
	go func() {
		watched <- c.WatchFeed(wctx, "page", client.FeedOptions{}, func(ev store.Event) error {
			select {
			case sawSnapshot <- ev:
			default:
			}
			return nil
		})
	}()
	select {
	case ev := <-sawSnapshot:
		if ev.Type != store.EventSnapshot || ev.Version != 3 {
			t.Fatalf("feed opened with %s v%d, want snapshot v3", ev.Type, ev.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("feed produced no snapshot before shutdown")
	}

	shutdown(t, stop, done)
	wcancel()
	select {
	case err := <-watched:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("watch ended with %v, want nil or context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not end after shutdown and cancel")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: replay the log, serve again, and check every version
	// reconstructs to the fingerprint its ingest reported.
	st2, err := store.Open(logPath, store.Config{CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("reopening store log: %v", err)
	}
	base2, stop2, done2 := bootStore(t, st2)
	c2 := client.New(client.Config{BaseURL: base2})

	vers, err := c2.DocVersions(ctx, "page")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers.Versions) != len(pages) || vers.Format != "text" {
		t.Fatalf("restarted daemon has %d %s versions, want %d text",
			len(vers.Versions), vers.Format, len(pages))
	}
	for v := 1; v <= len(pages); v++ {
		co, err := c2.CheckoutDoc(ctx, "page", v)
		if err != nil {
			t.Fatalf("checkout v%d after restart: %v", v, err)
		}
		if co.Fingerprint != fps[v-1] {
			t.Errorf("v%d fingerprint %s after restart, ingest reported %s", v, co.Fingerprint, fps[v-1])
		}
	}

	// The chain continues where it left off.
	resp, err := c2.IngestDoc(ctx, "page", client.DocPutRequest{
		Format:  "text",
		Content: "Opening line stays put. Second sentence rewritten here today. Closing line stays put.",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != len(pages)+1 {
		t.Fatalf("post-restart ingest = v%d, want v%d", resp.Version, len(pages)+1)
	}
	diff, err := c2.DiffDocVersions(ctx, "page", 1, resp.Version, "", "compose")
	if err != nil {
		t.Fatalf("composing across the restart boundary: %v", err)
	}
	if diff.Mode != "compose" || len(diff.Script) == 0 {
		t.Errorf("diff 1..%d = mode %s with %d ops, want a non-empty composed script",
			resp.Version, diff.Mode, len(diff.Script))
	}

	shutdown(t, stop2, done2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"ladiff/internal/route"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/testleak"
)

// TestServeLifecycle boots the daemon on ephemeral ports, runs one
// diff through it, then delivers a SIGTERM-equivalent on the stop
// channel and verifies a clean drain — including that no goroutine
// (listener loops, in-flight handlers, drain helpers) outlives it.
func TestServeLifecycle(t *testing.T) {
	defer testleak.Check(t)()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(replica(server.Config{Logger: logger}), "127.0.0.1:0", "127.0.0.1:0", 5*time.Second, logger, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not start listening")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	reqBody, _ := json.Marshal(server.DiffRequest{
		Old:    "Alpha beta gamma.\n",
		New:    "Alpha beta delta.\n",
		Format: "text",
	})
	resp, err = http.Post(base+"/v1/diff", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: status %d: %s", resp.StatusCode, body)
	}
	var diff server.DiffResponse
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Stats.Ops == 0 {
		t.Error("diff through the daemon produced no operations")
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after signal, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after signal")
	}

	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("service listener still accepting connections after shutdown")
	}
}

// TestServeRouteLifecycle boots a real replica plus the routing tier
// in -route mode, proxies a diff and a document write through it, then
// signals shutdown and verifies a clean, leak-free drain.
func TestServeRouteLifecycle(t *testing.T) {
	defer testleak.Check(t)()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	st := store.New(store.Config{})
	defer st.Close()
	rep := httptest.NewServer(server.New(server.Config{Store: st, Logger: logger}).Handler())
	defer rep.Close()

	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(router(route.Config{
			Replicas:      []string{rep.URL},
			ProbeInterval: 25 * time.Millisecond,
			Logger:        logger,
		}), "127.0.0.1:0", "", 5*time.Second, logger, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serveRoute exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("serveRoute did not start listening")
	}
	base := "http://" + addr

	reqBody, _ := json.Marshal(server.DiffRequest{
		Old:    "Alpha beta gamma.\n",
		New:    "Alpha beta delta.\n",
		Format: "text",
	})
	resp, err := http.Post(base+"/v1/diff", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff via router: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Route-Replica") != rep.URL {
		t.Errorf("X-Route-Replica = %q, want %q", resp.Header.Get("X-Route-Replica"), rep.URL)
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/docs/lifecycle",
		bytes.NewReader([]byte(`{"content":"Hello router.\n","format":"text"}`)))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("doc write via router: status %d: %s", resp.StatusCode, body)
	}
	if _, err := st.Latest("lifecycle"); err != nil {
		t.Fatalf("document did not land on the replica store: %v", err)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveRoute returned %v after signal, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveRoute did not shut down after signal")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("router listener still accepting connections after shutdown")
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ladiff/internal/server"
)

// loopback is one HTTP server on a 127.0.0.1 listener that counts the
// connections it accepts, so a run can show how many its load opened.
type loopback struct {
	url      string
	hs       *http.Server
	accepted atomic.Int64
	done     chan error
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	lb.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { lb.done <- lb.hs.Serve(countingListener{ln, &lb.accepted}) }()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient returns a client holding at most conns connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// discardLogger formats log records as ladiffd does (JSON) but drops
// them, so the logging cost stays in the measurement and the output
// stays clean.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// getJSON GETs url and decodes a 200 response into dst.
func getJSON(c *http.Client, url string, dst any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// scrape reads a server's /metrics.
func scrape(c *http.Client, base string) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	err := getJSON(c, base+"/metrics", &m)
	return m, err
}

// phaseDeltaMS is the mean time per request spent in a server phase
// between two scrapes.
func phaseDeltaMS(a, b server.MetricsSnapshot, phase string, reqs int64) float64 {
	if reqs <= 0 {
		return 0
	}
	return float64(b.PhaseUS[phase].SumUS-a.PhaseUS[phase].SumUS) / 1000 / float64(reqs)
}

package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/fault"
	"ladiff/internal/server"
	"ladiff/internal/store"
	"ladiff/internal/testleak"
)

// chaosReplica is a replica that can be killed (listener and all
// connections cut, store closed) and restarted on the same address
// over the same persistence log: a crashed process coming back and
// replaying its write-ahead log.
type chaosReplica struct {
	t    *testing.T
	addr string
	log  string

	mu  sync.Mutex
	srv *http.Server
	st  *store.Store
	up  bool
}

func startChaosReplica(t *testing.T) *chaosReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &chaosReplica{t: t, addr: ln.Addr().String(), log: filepath.Join(t.TempDir(), "store.log")}
	r.serve(ln)
	return r
}

func (r *chaosReplica) url() string { return "http://" + r.addr }

func (r *chaosReplica) serve(ln net.Listener) {
	st, err := store.Open(r.log, store.Config{})
	if err != nil {
		ln.Close()
		r.t.Errorf("replaying %s: %v", r.log, err)
		return
	}
	sv := server.New(server.Config{
		Store:  st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv := &http.Server{Handler: sv.Handler()}
	r.mu.Lock()
	r.srv, r.st, r.up = srv, st, true
	r.mu.Unlock()
	go srv.Serve(ln)
}

// kill cuts the replica down hard: listener closed, every open
// connection (including feed streams) severed, store closed.
func (r *chaosReplica) kill() {
	r.mu.Lock()
	srv, st := r.srv, r.st
	r.up = false
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if st != nil {
		st.Close()
	}
}

// restart brings the replica back on its original address, replaying
// its log.
func (r *chaosReplica) restart() {
	r.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		r.t.Errorf("restart %s: %v", r.addr, err)
		return
	}
	r.serve(ln)
}

func (r *chaosReplica) stop() {
	r.mu.Lock()
	up := r.up
	r.mu.Unlock()
	if up {
		r.kill()
	}
}

// docAck is one acknowledged document write, as the router reported
// it.
type docAck struct {
	key, fingerprint, replica string
	version                   int
}

// putAck PUTs one document revision through base with no retry. It
// returns the HTTP status and, on 200, the acknowledgement.
func putAck(ctx context.Context, base, key, content string) (int, docAck, error) {
	body, _ := json.Marshal(map[string]string{"format": "text", "content": content})
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/v1/docs/"+key, bytes.NewReader(body))
	if err != nil {
		return 0, docAck{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, docAck{}, err
	}
	defer resp.Body.Close()
	var out server.DocPutResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, docAck{}, err
		}
	}
	return resp.StatusCode, docAck{key, out.Fingerprint, resp.Header.Get("X-Route-Replica"), out.Version}, nil
}

// TestChaosKillRestartStorm proves the routing contract under a
// kill/restart storm: four log-backed replicas behind the router, the
// storm rolling through three of them (the feed document's owner
// first) while a client workload, a feed writer and a feed subscriber
// keep running. Afterwards:
//
//   - every acknowledged document write was acknowledged by the key's
//     ring owner and checks out through the router, from that owner,
//     with the fingerprint its ingest reported: zero stranded, zero
//     divergent;
//   - every failed document write was an explicit 502, 503 or 504;
//   - stateless diffs stay at or above the 99% SLO with NO client-side
//     retries (the router's failover is the only safety net in play,
//     and it fired);
//   - the router's request accounting balances exactly;
//   - the feed subscriber resumes on its restarted owner, observes the
//     writer's revisions again, and observes the final revision;
//   - draining the ring leaves no goroutine behind.
func TestChaosKillRestartStorm(t *testing.T) {
	defer testleak.Check(t)()

	const nReplicas = 4
	reps := make([]*chaosReplica, nReplicas)
	var urls []string
	for i := range reps {
		reps[i] = startChaosReplica(t)
		urls = append(urls, reps[i].url())
	}
	defer func() {
		for _, r := range reps {
			r.stop()
		}
	}()

	rt := New(Config{
		Replicas: urls,
		// Ejection takes four failed probes or eight failed attempts.
		// Document writes count toward the breaker, but only diffs fail
		// over; faster ejection would often let the document half alone
		// eject a victim before any diff reaches it, and the failover
		// check below would see nothing.
		ProbeInterval:   20 * time.Millisecond,
		Rise:            1,
		Fall:            4,
		Breaker:         8,
		BreakerCooldown: 150 * time.Millisecond,
		AttemptTimeout:  2 * time.Second,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	}()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// Every document write's outcome: acknowledgements to verify after
	// the storm, and the status of every refusal.
	var ackMu sync.Mutex
	var acks []docAck
	refused := map[int]int{} // status -> count; 0 is a transport error
	put := func(ctx context.Context, key, content string) (docAck, bool) {
		status, ack, err := putAck(ctx, router.URL, key, content)
		ackMu.Lock()
		defer ackMu.Unlock()
		if err == nil && status == http.StatusOK {
			acks = append(acks, ack)
			return ack, true
		}
		if err != nil {
			status = 0
		}
		refused[status]++
		return ack, false
	}

	// The feed document's owner is storm victim #1, so the subscriber
	// lives through its owner's restart.
	feedKey := keyOwnedBy(t, rt.ring, reps[0].url(), "feed-doc")
	seed, ok := put(context.Background(), feedKey, "Feed content revision 0 anchors the chain.")
	if !ok {
		t.Fatal("seed feed doc refused")
	}

	// ---- feed subscriber: WatchFeed in a resubscribe loop. WatchFeed
	// itself rides transient errors (503 owner_unavailable while the
	// owner is down); the loop covers any definitive one.
	watchCtx, watchCancel := context.WithCancel(context.Background())
	var feedMu sync.Mutex
	feedSeen := map[string]bool{seed.fingerprint: false} // fingerprints observed
	feedSnapshots := 0
	watcherDone := make(chan struct{})
	feedClient := client.New(client.Config{BaseURL: router.URL, MaxRetries: 1, Breaker: -1})
	go func() {
		defer close(watcherDone)
		for watchCtx.Err() == nil {
			feedClient.WatchFeed(watchCtx, feedKey, client.FeedOptions{}, func(ev client.FeedEvent) error {
				feedMu.Lock()
				if ev.Fingerprint != "" {
					feedSeen[ev.Fingerprint] = true
				}
				if ev.Type == store.EventSnapshot {
					feedSnapshots++
				}
				feedMu.Unlock()
				return nil
			})
			select {
			case <-watchCtx.Done():
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()
	// Deferred (not only inline below) so a mid-test Fatal tears the
	// subscriber's SSE chain down BEFORE the router's httptest server
	// closes — Close waits on active connections, and an open feed
	// would otherwise hang the unwind until the package timeout.
	defer func() { watchCancel(); <-watcherDone }()
	waitFor(t, "subscriber's first snapshot", func() bool {
		feedMu.Lock()
		defer feedMu.Unlock()
		return feedSnapshots > 0
	})

	// ---- feed writer: a new revision of the feed document every 30ms
	// until the subscriber has resumed after the storm; a refused write
	// is simply not acknowledged.
	writerStop := make(chan struct{})
	writerDone := make(chan struct{})
	stopWriter := sync.OnceFunc(func() { close(writerStop); <-writerDone })
	defer stopWriter()
	var wrote []string
	go func() {
		defer close(writerDone)
		for i := 1; ; i++ {
			select {
			case <-writerStop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			if ack, ok := put(context.Background(), feedKey, fmt.Sprintf("Feed content revision %d anchors the chain.", i)); ok {
				feedMu.Lock()
				wrote = append(wrote, ack.fingerprint)
				feedMu.Unlock()
			}
		}
	}()

	// ---- workload: 4 workers, no retries, alternating document PUTs
	// and stateless diffs until the storm is over. The SLO covers the
	// diffs.
	const workers = 4
	var diffOK, diffTotal atomic.Int64
	var stormOver atomic.Bool
	var wg sync.WaitGroup
	loadCtx, loadCancel := context.WithCancel(context.Background())
	defer func() { loadCancel(); wg.Wait() }()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(client.Config{
				BaseURL: router.URL, MaxRetries: -1, Breaker: -1, AttemptTimeout: 3 * time.Second,
			})
			for i := 0; !stormOver.Load() && loadCtx.Err() == nil; i++ {
				if i%2 == 0 {
					put(loadCtx, fmt.Sprintf("load-%d-%d", w, i/2%10),
						fmt.Sprintf("Worker %d wrote revision %d of this page.", w, i))
				} else {
					diffTotal.Add(1)
					_, err := c.Diff(loadCtx, client.DiffRequest{
						Old:    fmt.Sprintf("The stable sentence stays put. Counter reads %d now.", i),
						New:    fmt.Sprintf("The stable sentence stays put. Counter reads %d soon.", i),
						Format: "text",
					})
					if err == nil {
						diffOK.Add(1)
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// ---- the storm: kill → dead window → restart from the log →
	// recovery window, rolling over three replicas (the feed owner
	// first).
	for cycle := 0; cycle < 3; cycle++ {
		victim := reps[cycle%nReplicas]
		victim.kill()
		time.Sleep(150 * time.Millisecond)
		victim.restart()
		time.Sleep(200 * time.Millisecond)
	}
	stormOver.Store(true)
	wg.Wait()
	// Feed continuity: the subscriber re-anchors on its restarted owner
	// (a second snapshot; its reconnects wait out the owner_unavailable
	// Retry-After) and observes the writer's revisions again.
	waitFor(t, "subscriber resumes on the restarted owner", func() bool {
		feedMu.Lock()
		defer feedMu.Unlock()
		if feedSnapshots < 2 {
			return false
		}
		for _, fp := range wrote {
			if feedSeen[fp] {
				return true
			}
		}
		return false
	})
	stopWriter()

	// Settle: every replica probed back up, then a final write that the
	// subscriber must observe through whatever subscription it holds now.
	waitFor(t, "all replicas readmitted", func() bool {
		for _, u := range urls {
			if !rt.reps[u].Alive() {
				return false
			}
		}
		return true
	})
	var final docAck
	waitFor(t, "final feed write acknowledged", func() bool {
		var ok bool
		final, ok = put(context.Background(), feedKey, "Feed content final revision anchors the chain.")
		return ok
	})
	waitFor(t, "subscriber observes the final revision", func() bool {
		feedMu.Lock()
		defer feedMu.Unlock()
		return feedSeen[final.fingerprint]
	})
	watchCancel()
	<-watcherDone

	// No acknowledged write stranded or divergent: each checks out
	// through the router, from its owner, with the acknowledged
	// fingerprint.
	ackMu.Lock()
	defer ackMu.Unlock()
	stranded, divergent := 0, 0
	for _, a := range acks {
		owner := rt.ring.Owner("doc:" + a.key)
		if a.replica != owner {
			t.Errorf("%s v%d acknowledged by %s, owner is %s", a.key, a.version, a.replica, owner)
		}
		resp, data := postJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/docs/%s/versions/%d", router.URL, a.key, a.version), nil)
		var co server.DocCheckoutResponse
		switch {
		case resp.StatusCode != http.StatusOK || json.Unmarshal(data, &co) != nil:
			stranded++
			t.Errorf("%s v%d (fp %s) stranded: checkout status %d: %s", a.key, a.version, a.fingerprint, resp.StatusCode, data)
		case co.Fingerprint != a.fingerprint:
			divergent++
			t.Errorf("%s v%d divergent: acknowledged fp %s, checkout fp %s", a.key, a.version, a.fingerprint, co.Fingerprint)
		case resp.Header.Get("X-Route-Replica") != owner:
			t.Errorf("%s v%d checked out from %s, owner is %s", a.key, a.version, resp.Header.Get("X-Route-Replica"), owner)
		}
	}
	for status, n := range refused {
		switch status {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Errorf("%d document writes failed with status %d, want an explicit 502/503/504", n, status)
		}
	}
	t.Logf("document writes: %d acknowledged (%d stranded, %d divergent), refused %v",
		len(acks), stranded, divergent, refused)

	// SLO: ≥99% of stateless diffs succeed with zero client retries.
	succ, tot := diffOK.Load(), diffTotal.Load()
	if rate := float64(succ) / float64(tot); rate < 0.99 {
		t.Errorf("diff success rate %.2f%% (%d/%d), SLO is 99%%", 100*rate, succ, tot)
	} else {
		t.Logf("storm diff success rate %.2f%% (%d/%d), failovers=%d", 100*rate, succ, tot, rt.Snapshot().Failovers)
	}

	// Exactly-once accounting: each request in one bucket, attempts
	// matching the per-replica tallies. Document routes never fail
	// over, so every failover came from the stateless half.
	snap := rt.Snapshot()
	if snap.Requests != snap.Relayed+snap.NoReplica+snap.Failed+snap.RejectedDraining {
		t.Errorf("request accounting broken: %+v", snap)
	}
	var repAttempts, repFailures int64
	for _, rs := range snap.Replicas {
		repAttempts += rs.Attempts
		repFailures += rs.Failures
	}
	if snap.Attempts != repAttempts {
		t.Errorf("attempts %d != per-replica sum %d", snap.Attempts, repAttempts)
	}
	if snap.Failovers == 0 || repFailures == 0 {
		t.Errorf("storm produced no failovers (%d) or replica failures (%d) — the test exercised nothing",
			snap.Failovers, repFailures)
	}
}

// TestRouterFaultInjection wires the deterministic fault plan into the
// proxy path: an armed route.forward point fails attempts exactly like
// a dead upstream (502 when every attempt is injected), and an armed
// route.probe point ejects replicas through the ordinary rise/fall
// machinery.
func TestRouterFaultInjection(t *testing.T) {
	_, ts := newReplicaServer(t)
	rt := newTestRouter(t, Config{
		Replicas:      []string{ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		Breaker:       -1, // keep the breaker out of the way: isolate the injected faults
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	plan, err := fault.ParseSpec("route.forward:error;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	deactivate := fault.Activate(plan)
	resp, err := http.Get(router.URL + "/v1/docs/k/versions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status %d under injected forward faults, want 502", resp.StatusCode)
	}
	if hits := fault.Hits()[fault.RouteForward]; hits < 1 {
		t.Errorf("route.forward hits = %d, want ≥1", hits)
	}
	deactivate()

	plan, err = fault.ParseSpec("route.probe:error;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	deactivate = fault.Activate(plan)
	defer deactivate()
	waitFor(t, "probe faults eject the replica", func() bool {
		return !rt.reps[ts.URL].Healthy()
	})
}

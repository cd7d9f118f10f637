package route

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/client"
	"ladiff/internal/fault"
)

// replica is the router's live view of one backend: its probe-driven
// health plus a circuit breaker fed by proxied traffic. A replica
// receives requests only while Alive — probe-healthy AND
// breaker-admitted — so either signal can eject it: probes catch a
// down or draining process within an interval or two, the breaker
// catches a process that answers probes but fails real work.
type replica struct {
	url string

	// breaker trips on consecutive proxied-request failures (transport
	// errors and 502/503/504), giving sub-probe-interval ejection under
	// real traffic.
	breaker *client.Breaker

	mu      sync.Mutex
	healthy bool // probe verdict, with rise/fall hysteresis
	streak  int  // consecutive probe results contradicting healthy

	// Traffic counters for the metrics endpoint and the chaos test's
	// exactly-once accounting.
	attempts atomic.Int64 // proxied attempts sent here
	failures atomic.Int64 // attempts that failed transiently
}

func newReplica(url string, breakerThreshold int, cooldown time.Duration) *replica {
	return &replica{
		url:     url,
		breaker: client.NewBreaker(breakerThreshold, cooldown),
		healthy: true, // optimistic: don't blackhole a cold-started cluster
	}
}

// Healthy is the probe verdict alone.
func (r *replica) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// Alive reports whether the router may send this replica traffic.
func (r *replica) Alive() bool {
	return r.Healthy() && !r.breaker.Open()
}

// observeProbe folds one probe result into the rise/fall state machine:
// a healthy replica needs fall consecutive failures to be ejected, an
// ejected one needs rise consecutive successes to be re-admitted — so
// one dropped probe doesn't flap the ring. Re-admission also resets the
// breaker: the probe just proved the replica serves again, and making
// recovered capacity wait out a stale cooldown stretches every failover
// window.
func (r *replica) observeProbe(ok bool, rise, fall int) {
	r.mu.Lock()
	flippedUp := false
	if ok == r.healthy {
		r.streak = 0
	} else {
		r.streak++
		if (r.healthy && r.streak >= fall) || (!r.healthy && r.streak >= rise) {
			r.healthy = ok
			r.streak = 0
			flippedUp = ok
		}
	}
	r.mu.Unlock()
	if flippedUp {
		r.breaker.Reset()
	}
}

// probeLoop probes the replica's /readyz every interval until the
// router shuts down. It runs on its own goroutine per replica so one
// hung probe (a replica that accepts connections but never answers)
// cannot delay detection on the others.
func (rt *Router) probeLoop(rep *replica) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.life.Done():
			return
		case <-t.C:
		}
		rep.observeProbe(rt.probeOnce(rep), rt.cfg.Rise, rt.cfg.Fall)
	}
}

// probeOnce runs a single readiness probe. A 200 from /readyz is the
// only pass: a draining replica answers 503 and is ejected just like a
// dead one, which is what makes rolling restarts invisible to callers.
func (rt *Router) probeOnce(rep *replica) bool {
	if err := fault.Check(fault.RouteProbe); err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(rt.life, rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

package main

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sample is what one timed segment measured: one latency per attempted
// op (ms, +Inf for a failed or wrong op) and, for the open loop, how
// late each op was sent relative to its due time.
type sample struct {
	lat  []float64
	late []float64
	win  window
}

// join appends t's ops and runtime cost to s. The GC pause p99 becomes
// the larger of the two.
func (s *sample) join(t *sample) {
	s.lat = append(s.lat, t.lat...)
	s.late = append(s.late, t.late...)
	s.win.cpu += t.win.cpu
	s.win.allocBytes += t.win.allocBytes
	s.win.gcCycles += t.win.gcCycles
	s.win.pauseP99 = max(s.win.pauseP99, t.win.pauseP99)
	s.win.rssResetErr = errors.Join(s.win.rssResetErr, t.win.rssResetErr)
}

func (s *sample) cpuPerOp() float64 { return ms(s.win.cpu) / float64(max(len(s.lat), 1)) }

func (s *sample) failed() int64 {
	var n int64
	for _, l := range s.lat {
		if math.IsInf(l, 1) {
			n++
		}
	}
	return n
}

// latency converts an op's outcome into its distribution entry.
func latency(d time.Duration, ok bool) float64 {
	if !ok {
		return math.Inf(1)
	}
	return ms(d)
}

// An op returns when its timed part ended (before the benchmark checks
// the output) and whether the output was right.
type opFunc func(i int) (end time.Time, ok bool)

// closedLoop runs op back to back on the calling goroutine until d has
// elapsed, timing each from its start.
func closedLoop(d time.Duration, op opFunc) []float64 {
	lat := make([]float64, 0, 4096)
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(deadline) {
			return lat
		}
		end, ok := op(i)
		lat = append(lat, latency(end.Sub(start), ok))
	}
}

// pacedBursts runs n ops at rate ops/s in bursts of size: burst j starts
// at start + j·size/rate and runs its ops back to back on the calling
// goroutine, each timed from its own start, as in a closed loop. Unlike
// a closed loop, the run's op count is fixed whatever the speed of the
// code. late records how far behind its slot each burst began.
func pacedBursts(n, size int, rate float64, op opFunc) (lat, late []float64) {
	lat = make([]float64, 0, n)
	every := time.Duration(float64(size) / rate * float64(time.Second))
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%size == 0 {
			due := start.Add(time.Duration(i/size) * every)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, ms(time.Since(due)))
		}
		t := time.Now()
		end, ok := op(i)
		lat = append(lat, latency(end.Sub(t), ok))
	}
	return lat, late
}

// openLoop issues n ops on a fixed schedule — op i is due at
// start + i·interval — from workers goroutines, each holding at most one
// op in flight. An op is timed from its due time, not from when it was
// sent, so a stall charges its backlog to every later op; late records
// how far behind the schedule each send was.
func openLoop(n int, interval time.Duration, workers int, op opFunc) (lat, late []float64) {
	lat = make([]float64, n)
	late = make([]float64, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = ms(time.Since(due))
				end, ok := op(i)
				lat[i] = latency(end.Sub(due), ok)
			}
		}()
	}
	wg.Wait()
	return lat, late
}

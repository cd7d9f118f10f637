// Package sched is the serving tier's scheduling core: the worker-slot
// semaphore with its bounded wait queue, the drain discipline, and the
// bounded TTL job store that the async diff API runs on. It was
// extracted from internal/server's admission machinery so that every
// unit of work the daemon executes — single diffs, batch items, and
// async jobs — competes for the same slots under the same overload and
// drain rules, instead of each subsystem growing its own semaphore.
//
// The contract is the one the server has pinned since PR 3: at most
// Slots units execute concurrently, at most Queue more wait for a slot,
// and everything beyond that is refused immediately with ErrQueueFull —
// the signal handlers turn into 429 + Retry-After. Draining refuses new
// units while admitted ones run to completion.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/fault"
)

// ErrQueueFull reports that a unit of work found every execution slot
// busy and the wait queue at capacity — the load-shedding signal
// callers turn into 429 + Retry-After. Bounding the queue keeps latency
// honest under overload: a unit that cannot start soon is told to back
// off now rather than time out later (worst-case inputs must not
// silently pile up behind the common case).
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrDraining reports that the core refused new work because drain has
// begun.
var ErrDraining = errors.New("sched: draining")

// Config tunes one Core.
type Config struct {
	// Slots bounds the number of units executing at once. Must be > 0.
	Slots int
	// Queue bounds how many units may wait for a slot before Acquire
	// sheds load with ErrQueueFull. Must be >= 0.
	Queue int
	// QueuedGauge, when non-nil, is incremented while a unit waits in
	// the queue — shared with the embedder's metrics (the server passes
	// &Metrics.Queued) so the gauge needs no separate scrape path.
	QueuedGauge *atomic.Int64
}

// Core is the shared admission controller: a semaphore with a bounded
// wait queue plus the drain state that lets an embedder refuse new work
// while waiting out what it already admitted. One Core is shared by
// every consumer (single diffs, batch items, async jobs), so their
// aggregate concurrency is bounded together.
type Core struct {
	slots    chan struct{}
	maxQueue int64
	queued   *atomic.Int64

	// draining flips once at shutdown: new work is refused while units
	// already registered run to completion. It is guarded by mu (not an
	// atomic) so the inflight Add in Begin cannot race with Drain's
	// Wait: once BeginDrain's write lock is granted, every later Begin
	// sees draining and is refused.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

// New returns a Core for cfg. Slots <= 0 panics — a zero-slot core
// deadlocks every Acquire, and the embedders all default it explicitly.
func New(cfg Config) *Core {
	if cfg.Slots <= 0 {
		panic("sched: Config.Slots must be > 0")
	}
	queued := cfg.QueuedGauge
	if queued == nil {
		queued = &atomic.Int64{}
	}
	return &Core{
		slots:    make(chan struct{}, cfg.Slots),
		maxQueue: int64(cfg.Queue),
		queued:   queued,
	}
}

// Slots reports the configured concurrency bound.
func (c *Core) Slots() int { return cap(c.slots) }

// Queued reports how many units are waiting for a slot right now.
func (c *Core) Queued() int64 { return c.queued.Load() }

// Acquire takes an execution slot, waiting in the bounded queue if
// necessary. It returns ErrQueueFull when the queue is at capacity and
// ctx.Err() when the caller's context ends while waiting. On success
// the caller owns one slot and must call Release. The fault checkpoint
// lets chaos suites inject admission failures here.
func (c *Core) Acquire(ctx context.Context) error {
	if err := fault.Check(fault.SchedAcquire); err != nil {
		return err
	}
	select {
	case c.slots <- struct{}{}:
		return nil
	default:
	}
	if c.queued.Add(1) > c.maxQueue {
		c.queued.Add(-1)
		return ErrQueueFull
	}
	defer c.queued.Add(-1)
	select {
	case c.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees an execution slot.
func (c *Core) Release() { <-c.slots }

// Begin registers one unit of work as in flight unless the core is
// draining; every successful Begin must be paired with End. Holding the
// read lock across the WaitGroup Add means no Add can race with Drain's
// Wait.
func (c *Core) Begin() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.draining {
		return false
	}
	c.inflight.Add(1)
	return true
}

// End retires one unit registered by Begin.
func (c *Core) End() { c.inflight.Done() }

// BeginDrain flips the core into draining mode: Begin starts refusing
// new work while units already in flight run to completion. Idempotent.
func (c *Core) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (c *Core) Draining() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.draining
}

// Drain begins draining (if not already begun) and waits until every
// in-flight unit has ended or ctx ends, returning ctx.Err() in the
// latter case.
func (c *Core) Drain(ctx context.Context) error {
	c.BeginDrain()
	done := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Timeout resolves a per-unit deadline from a requested duration and
// the embedder's default and maximum: zero or negative requests get
// def, and everything is clamped to max.
func Timeout(requested, def, max time.Duration) time.Duration {
	d := def
	if requested > 0 {
		d = requested
	}
	if d > max {
		d = max
	}
	return d
}

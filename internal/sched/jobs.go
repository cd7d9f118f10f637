package sched

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ladiff/internal/fault"
)

// JobState is the lifecycle state of one async job.
//
//	queued ──▶ running ──▶ done | failed
//	   │           │
//	   └───────────┴─────▶ canceled
//
// done, failed, and canceled are terminal. A terminal job is retained
// (with its result) for the store's TTL so clients can poll it, then
// swept; sweeping a retained job counts it expired.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is one a job never leaves.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ErrJobsFull reports that the job store is at capacity (counting both
// live jobs and retained terminal results) — the submission-time
// load-shedding signal, turned into 429 + Retry-After by the server.
var ErrJobsFull = errors.New("sched: job store full")

// ErrJobsClosed reports a submission after Shutdown began.
var ErrJobsClosed = errors.New("sched: job store draining")

// JobCounters is the exactly-once accounting contract of the store.
// Queued and Running are gauges; the rest are cumulative. At every
// instant with no Submit in flight:
//
//	Submitted == Queued + Running + Done + Failed + Canceled
//
// and therefore, once the store has drained (gauges zero):
//
//	Submitted == Done + Failed + Canceled
//
// Expired counts terminal jobs whose retained results the TTL sweep
// evicted (Deleted counts the ones clients evicted explicitly first);
// eventually every terminal job is counted by exactly one of the two.
// Rejected counts Submit calls refused before a job existed (store
// full, store draining, or an injected job.persist fault) — every
// Submit call lands in exactly one of Submitted or Rejected.
type JobCounters struct {
	Submitted atomic.Int64
	Rejected  atomic.Int64
	Queued    atomic.Int64
	Running   atomic.Int64
	Done      atomic.Int64
	Failed    atomic.Int64
	Canceled  atomic.Int64
	Expired   atomic.Int64
	Deleted   atomic.Int64
}

// Job is an immutable snapshot of one job's state. Result and Err are
// set only in terminal states: Result is whatever the runner returned
// (the server stores its response or error envelope here), Err is the
// runner's error for failed jobs.
type Job struct {
	ID      string
	State   JobState
	Result  any
	Err     error
	Created time.Time
	// Expires is when the TTL sweep may evict the job; zero until the
	// job is terminal.
	Expires time.Time
}

// Runner executes one job's work. The context is canceled by
// DELETE-cancellation and by Shutdown; a runner that honors it promptly
// keeps cancellation prompt. The returned value is retained as the
// job's Result in both the done (err == nil) and failed cases — a
// failed runner may return its error envelope as the result.
type Runner func(ctx context.Context) (any, error)

// JobConfig tunes one JobStore.
type JobConfig struct {
	// Max bounds jobs held in the store: queued + running + retained
	// terminal results. 0 means 256.
	Max int
	// TTL is how long a terminal job's result is retained for polling
	// before the sweep evicts it. 0 means 5 minutes.
	TTL time.Duration
	// Counters, when non-nil, receives the store's accounting (shared
	// with the embedder's metrics).
	Counters *JobCounters
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time
}

// JobStore owns the async-job lifecycle on top of a shared Core: each
// submitted job runs in its own goroutine that acquires a worker slot
// (competing with synchronous requests in the same bounded queue),
// executes its Runner, and retains the terminal result for TTL. The
// store is bounded: Submit refuses beyond Max with ErrJobsFull.
type JobStore struct {
	core *Core
	cfg  JobConfig
	met  *JobCounters

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool
	seq    uint64
	prefix string

	// runners tracks job goroutines so Shutdown can wait them out.
	runners sync.WaitGroup
}

// job is the store's mutable record; all fields past the immutables are
// guarded by the store mutex.
type job struct {
	id      string
	created time.Time
	cancel  context.CancelFunc

	state   JobState
	result  any
	err     error
	expires time.Time
	// onTerminal is the completion hook (webhook delivery in the
	// server); it fires outside the store lock, exactly once, and only
	// for done/failed — a canceled job must never deliver.
	onTerminal func(Job)
}

// NewJobStore returns a JobStore running its jobs on core.
func NewJobStore(core *Core, cfg JobConfig) *JobStore {
	if cfg.Max <= 0 {
		cfg.Max = 256
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Minute
	}
	if cfg.Counters == nil {
		cfg.Counters = &JobCounters{}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	var b [4]byte
	_, _ = rand.Read(b[:])
	return &JobStore{
		core:   core,
		cfg:    cfg,
		met:    cfg.Counters,
		jobs:   make(map[string]*job),
		prefix: "job-" + hex.EncodeToString(b[:]),
	}
}

// Counters exposes the store's accounting.
func (s *JobStore) Counters() *JobCounters { return s.met }

// Len reports how many jobs the store holds (live + retained).
func (s *JobStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Submit registers a new job and starts its goroutine, returning the
// queued snapshot. onTerminal, when non-nil, is invoked exactly once
// when the job reaches done or failed — never for canceled. Submit
// refuses with ErrJobsFull at capacity (after sweeping expired results)
// and ErrJobsClosed once Shutdown began; the fault checkpoint lets
// chaos suites fail persistence here.
func (s *JobStore) Submit(run Runner, onTerminal func(Job)) (Job, error) {
	if err := fault.Check(fault.JobPersist); err != nil {
		s.met.Rejected.Add(1)
		return Job{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.Rejected.Add(1)
		return Job{}, ErrJobsClosed
	}
	s.sweepLocked(s.cfg.Clock())
	if len(s.jobs) >= s.cfg.Max {
		s.mu.Unlock()
		s.met.Rejected.Add(1)
		return Job{}, ErrJobsFull
	}
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:         fmt.Sprintf("%s-%d", s.prefix, s.seq),
		created:    s.cfg.Clock(),
		cancel:     cancel,
		state:      JobQueued,
		onTerminal: onTerminal,
	}
	s.jobs[j.id] = j
	s.met.Submitted.Add(1)
	s.met.Queued.Add(1)
	snap := j.snapshotLocked()
	s.runners.Add(1)
	s.mu.Unlock()

	go s.runJob(ctx, cancel, j, run)
	return snap, nil
}

// runJob is one job's goroutine: acquire a slot, run, terminalize.
func (s *JobStore) runJob(ctx context.Context, cancel context.CancelFunc, j *job, run Runner) {
	defer s.runners.Done()
	defer cancel()
	if err := s.core.Acquire(ctx); err != nil {
		// Canceled while queued (DELETE or Shutdown) → canceled; queue
		// overflow or an injected admission fault → failed.
		state := JobFailed
		if ctx.Err() != nil {
			state = JobCanceled
		}
		s.terminalize(j, state, nil, err)
		return
	}
	if ctx.Err() != nil {
		// Acquire can win a freed slot even after cancellation (a select
		// with both channels ready picks either): honor the cancel.
		s.core.Release()
		s.terminalize(j, JobCanceled, nil, ctx.Err())
		return
	}
	if !s.markRunning(j) {
		// Canceled, or Shutdown began, in the window between Acquire
		// returning and the state flip; give the slot back without
		// running. terminalize is a no-op if Cancel got there first.
		s.core.Release()
		s.terminalize(j, JobCanceled, nil, context.Canceled)
		return
	}
	result, err := run(ctx)
	s.core.Release()
	state := JobDone
	if err != nil {
		state = JobFailed
		// A runner that failed after losing its context to cancellation
		// (DELETE or Shutdown) reports canceled, not failed — the abort
		// was asked for, whatever error shape the pipeline returned it as.
		if ctx.Err() != nil {
			state = JobCanceled
		}
	}
	s.terminalize(j, state, result, err)
}

// markRunning flips queued → running; false if the job went terminal
// (canceled) first or Shutdown began. Shutdown cancels job contexts one
// by one, so a queued job can win the slot a canceled running job freed
// before its own context is canceled; the closed check keeps it from
// running.
func (s *JobStore) markRunning(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	s.met.Queued.Add(-1)
	s.met.Running.Add(1)
	return true
}

// terminalize moves j to a terminal state exactly once — the first
// caller (runner completion or Cancel) wins, later calls are no-ops.
// The onTerminal hook fires outside the lock, and only for done/failed.
func (s *JobStore) terminalize(j *job, state JobState, result any, err error) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	switch j.state {
	case JobQueued:
		s.met.Queued.Add(-1)
	case JobRunning:
		s.met.Running.Add(-1)
	}
	j.state = state
	j.result = result
	j.err = err
	j.expires = s.cfg.Clock().Add(s.cfg.TTL)
	switch state {
	case JobDone:
		s.met.Done.Add(1)
	case JobFailed:
		s.met.Failed.Add(1)
	case JobCanceled:
		s.met.Canceled.Add(1)
	}
	hook := j.onTerminal
	j.onTerminal = nil
	snap := j.snapshotLocked()
	s.mu.Unlock()
	if hook != nil && state != JobCanceled {
		hook(snap)
	}
}

// Get returns the job's current snapshot, sweeping expired results
// first (so an expired job reads as gone, exactly once).
func (s *JobStore) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(s.cfg.Clock())
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshotLocked(), true
}

// Cancel cancels the job's context and marks it canceled if it has not
// already reached a terminal state; on an already-terminal job it is a
// no-op that reports the existing state. The second return is false
// when the id is unknown (or already swept).
func (s *JobStore) Cancel(id string) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	cancel := j.cancel
	s.mu.Unlock()
	// Cancel the context first so a running job's engine sees the abort
	// before (or as) the state flips; terminalize resolves the race with
	// a concurrently completing runner first-writer-wins.
	cancel()
	s.terminalize(j, JobCanceled, nil, context.Canceled)
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshotLocked(), true
}

// Delete evicts a terminal job's retained result immediately instead of
// waiting for the TTL sweep. Non-terminal jobs are refused — cancel
// first. Returns false for unknown ids.
func (s *JobStore) Delete(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, nil
	}
	if !j.state.Terminal() {
		return true, fmt.Errorf("sched: job %s is %s, not terminal", id, j.state)
	}
	delete(s.jobs, id)
	s.met.Deleted.Add(1)
	return true, nil
}

// Sweep evicts expired retained results now (the sweep otherwise rides
// on Submit/Get traffic) and reports how many were evicted.
func (s *JobStore) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked(s.cfg.Clock())
}

func (s *JobStore) sweepLocked(now time.Time) int {
	n := 0
	for id, j := range s.jobs {
		if j.state.Terminal() && !j.expires.After(now) {
			delete(s.jobs, id)
			s.met.Expired.Add(1)
			n++
		}
	}
	return n
}

// Shutdown stops the store: new submissions are refused, every
// non-terminal job's context is canceled (queued jobs terminalize as
// canceled without running; running jobs abort through their context),
// and the call waits until every job goroutine has exited or ctx ends.
// Retained results stay readable until the process exits — the store is
// in-memory, so there is nothing to hand off.
func (s *JobStore) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	done := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (j *job) snapshotLocked() Job {
	return Job{
		ID:      j.id,
		State:   j.state,
		Result:  j.result,
		Err:     j.err,
		Created: j.created,
		Expires: j.expires,
	}
}

package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// taskSink receives the results of scheduled specs. The synchronous core
// (runSync) implements it for the cold tasks of /v1/simulate and
// /v1/simulate/batch-sync requests — warm tasks never reach the scheduler —
// and the scheduler tests fake it to steer coalescing and promotion.
type taskSink interface {
	taskCtx() context.Context
	deliver(idx int, res *harness.Result, err error)
}

// task is one spec to simulate on behalf of one sink; idx is the sink's own
// index for the delivery (a request's position in its task plan).
type task struct {
	sink      taskSink
	idx       int
	spec      harness.Spec
	submitted time.Time // queue-wait measurement (zero when unobserved)
}

// errSchedulerClosed rejects submissions after shutdown.
var errSchedulerClosed = errors.New("service: scheduler shut down")

// scheduler is the server-wide simulation worker pool. All requests share
// it, so total simulation concurrency is bounded by the worker count no
// matter how many clients are connected.
//
// On top of the Session singleflight it deduplicates identical in-flight
// specs at the scheduling level: the session memo already guarantees one
// simulation per spec, but a second worker calling RunCtx on an in-flight
// spec would park — a burned worker — for the duration of the run. Here the
// duplicate task is parked instead (a coalesced waiter) and its worker
// moves on; the owning worker fans the result out on completion. If the
// owner's request is cancelled mid-run, a parked waiter with a live context
// is promoted to owner and the spec re-runs under its context.
type scheduler struct {
	session *harness.Session
	tasks   chan task
	metrics *serverMetrics // nil in metric-less tests

	mu       sync.Mutex
	inflight map[harness.Spec][]task // spec being simulated -> parked duplicates
	closed   bool

	queued    atomic.Int64 // submitted, not yet picked up by a worker
	busy      atomic.Int64 // workers currently simulating
	coalesced atomic.Uint64
	workers   int
	wg        sync.WaitGroup
}

func newScheduler(se *harness.Session, workers int, m *serverMetrics) *scheduler {
	s := &scheduler{
		session:  se,
		tasks:    make(chan task, 4*workers),
		inflight: make(map[harness.Spec][]task),
		metrics:  m,
		workers:  workers,
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// submit enqueues one task, blocking while the queue is full (callers are
// request handlers, never workers, so this cannot deadlock the pool). The sink's context bounds the wait: a cancelled or
// timed-out submitter gets its context error instead of queueing dead work.
func (s *scheduler) submit(t task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSchedulerClosed
	}
	s.queued.Add(1)
	s.mu.Unlock()
	if s.metrics != nil {
		t.submitted = time.Now()
	}
	select {
	case s.tasks <- t:
		return nil
	case <-t.sink.taskCtx().Done():
		s.queued.Add(-1)
		return t.sink.taskCtx().Err()
	}
}

// close stops the workers. The server guarantees no submitter is alive by
// the time it calls this (every admitted request has returned).
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.tasks)
	s.wg.Wait()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		s.queued.Add(-1)
		if m := s.metrics; m != nil && !t.submitted.IsZero() {
			m.schedQueueWait.Observe(time.Since(t.submitted).Seconds())
		}
		if err := t.sink.taskCtx().Err(); err != nil {
			t.sink.deliver(t.idx, nil, err)
			continue
		}
		s.mu.Lock()
		if _, ok := s.inflight[t.spec]; ok {
			// Identical spec already being simulated: park this task as a
			// waiter instead of parking this worker on the memo.
			s.inflight[t.spec] = append(s.inflight[t.spec], t)
			s.coalesced.Add(1)
			s.mu.Unlock()
			if m := s.metrics; m != nil {
				m.schedCoalesced.Inc()
			}
			continue
		}
		s.inflight[t.spec] = nil
		s.mu.Unlock()

		s.busy.Add(1)
		if m := s.metrics; m != nil {
			m.schedBusy.Inc()
		}
		s.runSpec(t)
		s.busy.Add(-1)
		if m := s.metrics; m != nil {
			m.schedBusy.Dec()
		}
	}
}

// runSpec simulates cur's spec and fans the result out to every waiter that
// coalesced onto it. A run abandoned by cancellation (the owner's request
// went away) promotes the first parked waiter with a live context and loops.
func (s *scheduler) runSpec(cur task) {
	for {
		res, err := s.session.RunCtx(cur.sink.taskCtx(), cur.spec)
		cur.sink.deliver(cur.idx, res, err)

		s.mu.Lock()
		waiters := s.inflight[cur.spec]
		abandoned := err != nil && harness.IsContextErr(err)
		var dead []task
		var next task
		promoted := false
		if abandoned {
			// Drain waiters until one with a live context can take over;
			// the ones cancelled while parked just get their own error.
			for len(waiters) > 0 && !promoted {
				w := waiters[0]
				waiters = waiters[1:]
				if w.sink.taskCtx().Err() == nil {
					next, promoted = w, true
				} else {
					dead = append(dead, w)
				}
			}
		}
		if promoted {
			s.inflight[cur.spec] = waiters // the rest stay parked
		} else {
			delete(s.inflight, cur.spec)
		}
		s.mu.Unlock()

		for _, w := range dead {
			w.sink.deliver(w.idx, nil, w.sink.taskCtx().Err())
		}
		if promoted {
			cur = next
			continue
		}
		if !abandoned {
			// Success or a real (memoized) error: every waiter gets the
			// same outcome the memo now holds. Each waiter is one logical
			// lookup the scheduler answered above the session, so record
			// them as memo hits — otherwise coalescing would silently
			// deflate the hit count (one RunCtx for many lookups).
			if len(waiters) > 0 {
				s.session.CountCoalescedHits(uint64(len(waiters)))
			}
			for _, w := range waiters {
				w.sink.deliver(w.idx, res, err)
			}
		}
		return
	}
}

// Internal tests for the scheduler's coalescing/promotion machinery — paths
// the HTTP surface cannot steer precisely (promotion needs its waiters
// parked in a known order). Run with -race.
package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// promoSink is a single-task taskSink recording its one delivery.
type promoSink struct {
	ctx  context.Context
	mu   sync.Mutex
	res  *harness.Result
	err  error
	done chan struct{}
}

func newPromoSink(ctx context.Context) *promoSink {
	return &promoSink{ctx: ctx, done: make(chan struct{})}
}

func (s *promoSink) taskCtx() context.Context { return s.ctx }

func (s *promoSink) deliver(idx int, res *harness.Result, err error) {
	s.mu.Lock()
	s.res, s.err = res, err
	s.mu.Unlock()
	close(s.done)
}

func (s *promoSink) wait(t *testing.T, what string) (*harness.Result, error) {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(120 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// TestOwnerPromotionServesParkedWaiters pins the scheduler's promotion path
// with leftover parked waiters: the owner of an in-flight spec is cancelled
// while three duplicates are parked on it — one already dead, two live. The
// dead waiter must get its own context error, the first live waiter must be
// promoted to owner, and the promoted re-run must serve the remaining
// parked survivor too.
func TestOwnerPromotionServesParkedWaiters(t *testing.T) {
	// Windows long enough that the owner is still simulating while the
	// waiters park and the cancellations land.
	se := harness.NewSession(10_000, 1_500_000)
	sched := newScheduler(se, 2, nil)
	defer sched.close()
	spec := harness.Spec{Kernel: "gzip", Predictor: "none"}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	owner := newPromoSink(ownerCtx)
	if err := sched.submit(task{sink: owner, idx: 0, spec: spec}); err != nil {
		t.Fatal(err)
	}
	// The owner must hold the in-flight slot before any duplicate arrives,
	// or a duplicate would own the spec instead.
	waitFor("owner in flight", func() bool { return sched.busy.Load() == 1 })

	deadCtx, cancelDead := context.WithCancel(context.Background())
	defer cancelDead()
	dead := newPromoSink(deadCtx) // will be cancelled while parked
	promoted := newPromoSink(context.Background())
	survivor := newPromoSink(context.Background())
	for i, s := range []*promoSink{dead, promoted, survivor} {
		if err := sched.submit(task{sink: s, idx: i + 1, spec: spec}); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		waitFor("waiter parked", func() bool { return sched.coalesced.Load() == want })
	}

	// Kill the first parked waiter, then the owner mid-simulation. The
	// drain must hand dead its own error, promote the next live waiter,
	// and keep the survivor parked for the re-run's fan-out.
	cancelDead()
	cancelOwner()

	if _, err := owner.wait(t, "owner delivery"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner got %v, want context.Canceled", err)
	}
	if res, err := dead.wait(t, "dead-waiter delivery"); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("dead waiter got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	pRes, pErr := promoted.wait(t, "promoted waiter delivery")
	if pErr != nil || pRes == nil {
		t.Fatalf("promoted waiter got (%v, %v), want a result", pRes, pErr)
	}
	sRes, sErr := survivor.wait(t, "survivor delivery")
	if sErr != nil || sRes == nil {
		t.Fatalf("parked survivor got (%v, %v), want a result", sRes, sErr)
	}
	if pRes.Stats != sRes.Stats {
		t.Error("promoted owner and parked survivor got different results for one spec")
	}
	waitFor("workers idle", func() bool { return sched.busy.Load() == 0 })
	// The re-run's result must be memoized for later requests (the
	// cancellation was the owner's, not the promoted run's).
	if m := se.MemoStats(); m.Misses != 2 || m.Hits != 1 {
		t.Errorf("memo stats = %d misses / %d hits, want 2/1: the abandoned owner run and the promoted re-run are "+
			"the misses, the fanned-out survivor the one hit — a double-counted promotion would inflate the misses, "+
			"an uncounted survivor would deflate the hits", m.Misses, m.Hits)
	}
}

// TestMemoStatsCoalescedWaitersCountAsHits pins the contention accounting
// (run with -race): waiters the scheduler parks on an in-flight spec never
// call RunCtx themselves, yet each is one logical lookup served from the
// memo entry once the owner finishes. They must count as exactly one hit
// each — no more (double delivery) and no less (coalescing silently
// swallowing lookups).
func TestMemoStatsCoalescedWaitersCountAsHits(t *testing.T) {
	// Windows long enough that the owner is still simulating while every
	// duplicate parks.
	se := harness.NewSession(10_000, 1_500_000)
	sched := newScheduler(se, 2, nil)
	defer sched.close()
	spec := harness.Spec{Kernel: "gzip", Predictor: "none"}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	owner := newPromoSink(context.Background())
	if err := sched.submit(task{sink: owner, idx: 0, spec: spec}); err != nil {
		t.Fatal(err)
	}
	waitFor("owner in flight", func() bool { return sched.busy.Load() == 1 })

	const dupes = 3
	waiters := make([]*promoSink, dupes)
	for i := range waiters {
		waiters[i] = newPromoSink(context.Background())
		if err := sched.submit(task{sink: waiters[i], idx: i + 1, spec: spec}); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		waitFor("waiter parked", func() bool { return sched.coalesced.Load() == want })
	}

	oRes, oErr := owner.wait(t, "owner delivery")
	if oErr != nil || oRes == nil {
		t.Fatalf("owner got (%v, %v), want a result", oRes, oErr)
	}
	for i, w := range waiters {
		res, err := w.wait(t, "waiter delivery")
		if err != nil || res == nil {
			t.Fatalf("waiter %d got (%v, %v), want a result", i, res, err)
		}
		if res.Stats != oRes.Stats {
			t.Errorf("waiter %d's fanned-out result differs from the owner's", i)
		}
	}
	if m := se.MemoStats(); m.Misses != 1 || m.Hits != dupes {
		t.Errorf("memo stats = %d misses / %d hits, want 1/%d: one simulation, one hit per coalesced waiter",
			m.Misses, m.Hits, dupes)
	}
}

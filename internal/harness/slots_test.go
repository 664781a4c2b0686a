// Tests for the session's worker slots and the coalescing and promotion
// RunCtx performs for concurrent callers. Run with -race.
package harness

import (
	"context"
	"errors"
	"testing"
	"time"
)

// longWarmup and longMeasure keep one gzip run in flight for about half a
// second (far longer under -race), long enough for joins, slot waits and
// cancellations to land mid-run.
const longWarmup, longMeasure = 10_000, 1_500_000

type runOutcome struct {
	res *Result
	err error
}

// goRun starts RunCtx(ctx, spec) on its own goroutine; the outcome arrives
// on the returned channel.
func goRun(se *Session, ctx context.Context, spec Spec) <-chan runOutcome {
	ch := make(chan runOutcome, 1)
	go func() {
		res, err := se.RunCtx(ctx, spec)
		ch <- runOutcome{res, err}
	}()
	return ch
}

// waitFor polls cond until it holds or a minute passes.
func waitFor(t *testing.T, what string, cond func() bool) {
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

// await receives one outcome or fails the test after two minutes.
func await(t *testing.T, what string, ch <-chan runOutcome) runOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(120 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return runOutcome{}
	}
}

// TestOwnerPromotionServesParkedWaiters pins promotion with leftover
// waiters: the owner of an in-flight spec is cancelled while three lookups
// are joined to it — one already dead, two live. The dead one must get its
// own context error; whichever live one retries first must re-run the spec,
// and the re-run must serve the other too.
func TestOwnerPromotionServesParkedWaiters(t *testing.T) {
	t.Parallel()
	se := NewSession(longWarmup, longMeasure)
	se.UseWorkers(2)
	spec := Spec{Kernel: "gzip", Predictor: "none"}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	owner := goRun(se, ownerCtx, spec)
	// The owner must hold a slot before any duplicate arrives, or a
	// duplicate would own the spec instead.
	waitFor(t, "owner in flight", func() bool { return se.SlotStats().Busy == 1 })

	deadCtx, cancelDead := context.WithCancel(context.Background())
	defer cancelDead()
	var waiters [3]<-chan runOutcome
	for i, ctx := range []context.Context{deadCtx, context.Background(), context.Background()} {
		waiters[i] = goRun(se, ctx, spec)
		want := uint64(i + 1)
		waitFor(t, "waiter joined", func() bool { return se.SlotStats().Joined == want })
	}

	// Kill the first joined waiter, then the owner mid-simulation.
	cancelDead()
	cancelOwner()

	if out := await(t, "owner", owner); !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled owner got %v, want context.Canceled", out.err)
	}
	if out := await(t, "dead waiter", waiters[0]); !errors.Is(out.err, context.Canceled) || out.res != nil {
		t.Fatalf("dead waiter got (%v, %v), want (nil, context.Canceled)", out.res, out.err)
	}
	a, b := await(t, "live waiter", waiters[1]), await(t, "live waiter", waiters[2])
	if a.err != nil || a.res == nil || b.err != nil || b.res == nil {
		t.Fatalf("live waiters got (%v, %v) and (%v, %v), want two results", a.res, a.err, b.res, b.err)
	}
	if a.res.Stats != b.res.Stats {
		t.Error("the re-run's owner and its waiter got different results for one spec")
	}
	waitFor(t, "slots idle", func() bool { return se.SlotStats() == SlotStats{Joined: 3} })
	// Every waiter calls RunCtx itself and counts a hit when it joins; the
	// live waiter that re-runs the spec trades its hit for the second miss.
	if m := se.MemoStats(); m.Misses != 2 || m.Hits != 2 {
		t.Errorf("memo stats = %d misses / %d hits, want 2/2: the abandoned owner run and the re-run are "+
			"the misses; the dead waiter and the re-run's waiter the hits — a double-counted promotion would "+
			"inflate the misses, an uncounted join would deflate the hits", m.Misses, m.Hits)
	}
	if _, _, ok := se.peek(spec); !ok {
		t.Error("the re-run's result was not memoized")
	}
}

// TestMemoStatsCoalescedWaitersCountAsHits pins the contention accounting:
// lookups joined to an in-flight spec wait without a slot and are served
// from the owner's entry, one hit each — no more (double counting) and no
// less (coalescing swallowing lookups).
func TestMemoStatsCoalescedWaitersCountAsHits(t *testing.T) {
	t.Parallel()
	se := NewSession(longWarmup, longMeasure)
	se.UseWorkers(2)
	spec := Spec{Kernel: "gzip", Predictor: "none"}

	owner := goRun(se, context.Background(), spec)
	waitFor(t, "owner in flight", func() bool { return se.SlotStats().Busy == 1 })

	const dupes = 3
	var waiters [dupes]<-chan runOutcome
	for i := range waiters {
		waiters[i] = goRun(se, context.Background(), spec)
		want := uint64(i + 1)
		waitFor(t, "waiter joined", func() bool { return se.SlotStats().Joined == want })
	}

	o := await(t, "owner", owner)
	if o.err != nil || o.res == nil {
		t.Fatalf("owner got (%v, %v), want a result", o.res, o.err)
	}
	for i, ch := range waiters {
		w := await(t, "waiter", ch)
		if w.err != nil || w.res != o.res {
			t.Errorf("waiter %d got (%p, %v), want the owner's result %p", i, w.res, w.err, o.res)
		}
	}
	if m := se.MemoStats(); m.Misses != 1 || m.Hits != dupes {
		t.Errorf("memo stats = %d misses / %d hits, want 1/%d: one simulation, one hit per joined waiter",
			m.Misses, m.Hits, dupes)
	}
}

// TestJoinedWaitersHoldNoSlot: with two slots, one owner simulating and
// three lookups joined to it, a different cold spec must take the second
// slot while the first run is still in flight.
func TestJoinedWaitersHoldNoSlot(t *testing.T) {
	t.Parallel()
	se := NewSession(longWarmup, longMeasure)
	se.UseWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := Spec{Kernel: "gzip", Predictor: "none"}

	owner := goRun(se, ctx, first)
	waitFor(t, "owner in flight", func() bool { return se.SlotStats().Busy == 1 })
	var waiters [3]<-chan runOutcome
	for i := range waiters {
		waiters[i] = goRun(se, ctx, first)
		want := uint64(i + 1)
		waitFor(t, "waiter joined", func() bool { return se.SlotStats().Joined == want })
	}

	other := goRun(se, ctx, Spec{Kernel: "art", Predictor: "none"})
	waitFor(t, "second slot taken", func() bool { return se.SlotStats().Busy == 2 })
	if st := se.SlotStats(); st.Queued != 0 {
		t.Errorf("slot stats %+v: a cold spec queued while only joined lookups waited", st)
	}
	select {
	case out := <-owner:
		t.Fatalf("first run finished (%v) before the check; it must be in flight", out.err)
	default:
	}

	cancel()
	for _, ch := range append(waiters[:], owner, other) {
		if out := await(t, "cancelled lookup", ch); !errors.Is(out.err, context.Canceled) {
			t.Errorf("cancelled lookup got %v, want context.Canceled", out.err)
		}
	}
	if st := se.SlotStats(); st.Busy != 0 || st.Queued != 0 {
		t.Errorf("slot stats %+v after every lookup returned, want none busy or queued", st)
	}
}

// TestOwnerCancelledWaitingForSlot: an owner cancelled while every slot is
// held returns its context error, counts its miss and leaves no memo entry,
// so the next lookup of its spec re-runs it.
func TestOwnerCancelledWaitingForSlot(t *testing.T) {
	t.Parallel()
	se := NewSession(longWarmup, longMeasure)
	se.UseWorkers(1)
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	holder := goRun(se, holdCtx, Spec{Kernel: "gzip", Predictor: "none"})
	waitFor(t, "slot held", func() bool { return se.SlotStats().Busy == 1 })

	waitCtx, giveUp := context.WithCancel(context.Background())
	defer giveUp()
	queued := Spec{Kernel: "art", Predictor: "none"}
	waiter := goRun(se, waitCtx, queued)
	waitFor(t, "owner queued", func() bool { return se.SlotStats().Queued == 1 })

	giveUp()
	if out := await(t, "queued owner", waiter); !errors.Is(out.err, context.Canceled) || out.res != nil {
		t.Fatalf("queued owner got (%v, %v), want (nil, context.Canceled)", out.res, out.err)
	}
	se.mu.Lock()
	_, left := se.memo[queued]
	se.mu.Unlock()
	if left {
		t.Error("an owner cancelled before its slot left a memo entry behind")
	}
	if m := se.MemoStats(); m.Misses != 2 || m.Hits != 0 {
		t.Errorf("memo stats = %d misses / %d hits, want 2/0: both owners count their miss", m.Misses, m.Hits)
	}

	release()
	if out := await(t, "slot holder", holder); !errors.Is(out.err, context.Canceled) {
		t.Fatalf("slot holder got %v, want context.Canceled", out.err)
	}
	if st := se.SlotStats(); st.Busy != 0 || st.Queued != 0 {
		t.Errorf("slot stats %+v after both owners returned, want none busy or queued", st)
	}
}

package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// TestRunCtxMatchesRun pins the equivalence the service layer depends on:
// the session's cancellable chunked simulation must produce stats
// byte-identical to one sim.Run over the same windows, because Advance
// targets absolute commit counts and pausing between cycles is
// state-neutral.
func TestRunCtxMatchesRun(t *testing.T) {
	t.Parallel()
	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "vtage", Counters: FPC},
		{Kernel: "art", Predictor: "stride", Counters: BaselineCounters},
	}
	c := testWindows(5_000, 60_000)
	for _, spec := range specs {
		k, _ := kernels.ByName(spec.Kernel)
		h := &ghist.History{}
		pred, err := spec.newPredictor(h)
		if err != nil {
			t.Fatal(err)
		}
		tr := emu.Trace(k.Build(), int(c.Warmup+c.Measure))
		want, err := pipeline.New(spec.config(), tr, pred, h).Run(c.Warmup, c.Measure)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSession(c).RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != *want {
			t.Errorf("%v: chunked cancellable run diverged from one-shot run:\n%+v\n%+v",
				spec, got.Stats, *want)
		}
	}
}

// TestRunCtxCancelledNotMemoized: a cancelled run must not poison the memo —
// the next request for the same spec re-simulates and succeeds.
func TestRunCtxCancelledNotMemoized(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(5_000, 60_000))
	spec := Spec{Kernel: "gzip", Predictor: "lvp"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	if _, err := se.RunCtx(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	r, err := se.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after cancellation: %v (cancellation was memoized)", err)
	}
	if r.Stats.IPC() <= 0 {
		t.Errorf("re-run after cancellation produced empty stats: %+v", r.Stats)
	}
}

// TestRunCtxCancelMidRun cancels a simulation once it is in flight and
// requires RunCtx to return promptly with the context error — the property
// that lets a cancelled service request free its worker.
func TestRunCtxCancelMidRun(t *testing.T) {
	t.Parallel()
	// Large windows so the run is comfortably longer than the cancellation
	// latency being measured.
	se := NewSession(SessionConfig{Warmup: 50_000, Measure: 1_500_000})
	spec := Spec{Kernel: "gzip", Predictor: "none"}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := se.RunCtx(ctx, spec)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it get into the simulate loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("RunCtx still running %v after cancel", time.Since(start))
	}
	// The abandoned entry must be gone so a fresh small-window session-level
	// retry re-owns it (checked via memo counters: a new RunCtx is a miss).
	misses := se.MemoStats().Misses
	se.mu.Lock()
	_, stillThere := se.memo[spec]
	se.mu.Unlock()
	if stillThere {
		t.Error("cancelled run left its memo entry behind")
	}
	if misses == 0 {
		t.Error("cancelled run was never counted as a miss")
	}
}

// TestRunCtxWaiterRetriesAfterAbandonedOwner: a goroutine that joined an
// in-flight entry whose owner got cancelled must transparently retry and
// succeed under its own live context.
func TestRunCtxWaiterRetriesAfterAbandonedOwner(t *testing.T) {
	t.Parallel()
	se := NewSession(SessionConfig{Warmup: 50_000, Measure: 1_000_000})
	spec := Spec{Kernel: "art", Predictor: "none"}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := se.RunCtx(ownerCtx, spec)
		ownerErr <- err
	}()
	// Wait until the owner's entry exists so the waiter is guaranteed to
	// join rather than own.
	for {
		se.mu.Lock()
		_, ok := se.memo[spec]
		se.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	waiterDone := make(chan error, 1)
	go func() {
		r, err := se.RunCtx(context.Background(), spec)
		if err == nil && r == nil {
			err = errors.New("nil result without error")
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelOwner()

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner got %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter failed after owner abandonment: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("waiter never completed after owner abandonment")
	}
	m := se.MemoStats()
	if m.Hits+m.Misses != 2 {
		t.Errorf("memo saw %d lookups, want 2 (hits=%d misses=%d)", m.Hits+m.Misses, m.Hits, m.Misses)
	}
	// Exact split: the waiter's join was recounted from a hit to a miss when
	// it re-owned the abandoned entry — a double-counted promotion would
	// leave hits=1/misses=2 (3 lookups for 2 calls).
	if m.Hits != 0 || m.Misses != 2 {
		t.Errorf("memo stats = %d hits / %d misses, want 0/2 after abandoned-owner promotion", m.Hits, m.Misses)
	}
}

// TestRunAllCtxCancel: cancelling a batch abandons the unstarted tail and
// Records reports the context error, not a spec's.
func TestRunAllCtxCancel(t *testing.T) {
	t.Parallel()
	se := NewSession(SessionConfig{Warmup: 50_000, Measure: 600_000, Workers: 2})
	var specs []Spec
	for _, k := range KernelNames() {
		specs = append(specs, Spec{Kernel: k, Predictor: "none"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	failed, err := se.Records(ctx, specs, func(Record) error { return nil })
	if !errors.Is(err, context.Canceled) || failed != -1 {
		t.Fatalf("got (%d, %v), want (-1, context.Canceled)", failed, err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancelled Records took %v to return", d)
	}
}

// TestMemoStatsConcurrent hammers hits, misses and MemoStats readers from
// many goroutines (run with -race) and checks the accounting invariant:
// hits+misses equals the number of lookups, and misses covers each distinct
// spec at least once.
func TestMemoStatsConcurrent(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(1_000, 4_000))
	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "art", Predictor: "none"},
	}
	const goroutines = 12
	const rounds = 4
	var lookups atomic.Uint64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent MemoStats polling while runs are in flight
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m := se.MemoStats()
				if m.Hits+m.Misses > goroutines*rounds*uint64(len(specs)) {
					t.Errorf("MemoStats over-counted: hits=%d misses=%d", m.Hits, m.Misses)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range specs {
					if _, err := se.RunCtx(context.Background(), specs[(g+i)%len(specs)]); err != nil {
						t.Error(err)
						return
					}
					lookups.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := se.MemoStats()
	if st.Hits+st.Misses != lookups.Load() {
		t.Errorf("hits(%d)+misses(%d) != %d lookups", st.Hits, st.Misses, lookups.Load())
	}
	if st.Misses != uint64(len(specs)) {
		t.Errorf("%d misses, want exactly %d (one per distinct spec)", st.Misses, len(specs))
	}
}

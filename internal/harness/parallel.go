package harness

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// RunAll simulates every spec across a pool of worker goroutines and returns
// the results in spec order: results[i] always corresponds to specs[i],
// regardless of completion order, so parallel scheduling never changes
// rendered output. workers <= 0 selects GOMAXPROCS. Duplicate specs in the
// batch are simulated once (the session memo singleflights them). On error
// the first failure in spec order is returned; results holds every run that
// did complete.
func (se *Session) RunAll(specs []Spec, workers int) ([]*Result, error) {
	return se.RunAllCtx(context.Background(), specs, workers)
}

// RunAllCtx is RunAll with cancellation: once ctx is done, unstarted specs
// are abandoned with ctx's error, in-flight simulations stop at their next
// cancellation checkpoint, and the call returns. Results that completed
// before the cancellation are still populated.
func (se *Session) RunAllCtx(ctx context.Context, specs []Spec, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]*Result, len(specs))
	if len(specs) == 0 {
		return results, nil
	}
	// Queue wait = submission to worker pickup; observed per spec so the
	// histogram shows how long the tail of a batch sits behind the pool.
	o := se.observer()
	var submitted time.Time
	if o != nil {
		submitted = time.Now()
	}
	errs := make([]error, len(specs))
	if workers <= 1 {
		for i, s := range specs {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			o.observeQueueWait(sinceSubmitted(submitted))
			results[i], errs[i] = se.RunCtx(ctx, s)
		}
		return results, firstError(errs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o.observeQueueWait(sinceSubmitted(submitted))
				results[i], errs[i] = se.RunCtx(ctx, specs[i])
			}
		}()
	}
feed:
	for i := range specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Workers only ever touch fed indexes, so marking the rest
			// here is race-free.
			for j := i; j < len(specs); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results, firstError(errs)
}

// DedupSpecs returns specs with exact duplicates removed, keeping
// first-appearance order — the one definition of "unique specs" the
// benchmarks and the service layer share. Declared spec sets repeat
// per-kernel baselines across figure halves; the memo makes the duplicates
// free at run time, but counting or costing a batch wants them gone.
func DedupSpecs(specs []Spec) []Spec {
	seen := make(map[Spec]bool, len(specs))
	out := make([]Spec, 0, len(specs))
	for _, sp := range specs {
		if !seen[sp] {
			seen[sp] = true
			out = append(out, sp)
		}
	}
	return out
}

// sinceSubmitted guards the queue-wait measurement against an unobserved
// batch (zero submission time → zero wait, and observeQueueWait no-ops on
// the nil observer anyway).
func sinceSubmitted(submitted time.Time) time.Duration {
	if submitted.IsZero() {
		return 0
	}
	return time.Since(submitted)
}

// firstError returns the earliest non-nil error, keeping failure reporting
// deterministic under parallel execution.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// Dispatch-cost pins for the wire path. The frozen BENCH_pr5.json measured
// warm per-call remote dispatch at ~48 µs/call; the batch-sync framing
// exists to beat that by amortizing HTTP and scheduling machinery across a
// whole frame. The benchmarks below give the absolute numbers interactively, and
// the benchmark's serve-warm workload is the measure of record; the test
// below is the CI regression gate, asserted as a ratio on one machine so a
// slow runner can't flake it.

// warmDispatchFixture is a live in-process service with every fig4 spec
// already simulated, so timed calls measure dispatch alone.
type warmDispatchFixture struct {
	c    *Client
	reqs []service.SpecRequest
}

func newWarmDispatchFixture(tb testing.TB) *warmDispatchFixture {
	tb.Helper()
	srv, err := service.New(service.Options{Warmup: 1_000, Measure: 4_000, Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	tb.Cleanup(func() { hs.Close(); srv.Close() })

	var reqs []service.SpecRequest
	for _, sp := range harness.DedupSpecs(harness.Fig4Specs()) {
		reqs = append(reqs, service.RequestFor(sp))
	}
	c := New(hs.URL)
	if _, err := c.SimulateBatchSync(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	return &warmDispatchFixture{c: c, reqs: reqs}
}

// timePerCall returns warm µs per Simulate round-trip.
func (fx *warmDispatchFixture) timePerCall(tb testing.TB, calls int) float64 {
	tb.Helper()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := fx.c.Simulate(ctx, fx.reqs[i%len(fx.reqs)]); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(calls)
}

// timeBatched returns warm µs per spec through batch-sync frames.
func (fx *warmDispatchFixture) timeBatched(tb testing.TB, frames int) float64 {
	tb.Helper()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if _, err := fx.c.SimulateBatchSync(ctx, fx.reqs); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(frames*len(fx.reqs))
}

// TestBatchedDispatchBeatsPerCall is the regression gate for the batched
// wire path: per spec, a batch-sync frame must dispatch at least 5x
// cheaper than warm per-call Simulate on the same connection. Both sides
// run on this machine in this process, so the ratio holds on slow CI
// runners where an absolute µs bound would not.
func TestBatchedDispatchBeatsPerCall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	fx := newWarmDispatchFixture(t)
	perCall := fx.timePerCall(t, 200)
	batched := fx.timeBatched(t, 20)
	t.Logf("warm dispatch: %.1f µs/call per-call, %.2f µs/spec batched (%.1fx)",
		perCall, batched, perCall/batched)
	if batched*5 > perCall {
		t.Errorf("batched dispatch %.2f µs/spec is not 5x cheaper than per-call %.1f µs/call (%.1fx)",
			batched, perCall, perCall/batched)
	}
}

// BenchmarkWarmSimulateDispatch is the per-call baseline: one warm spec
// per HTTP round-trip (the frozen BENCH_pr5.json recorded ~48 µs/call).
func BenchmarkWarmSimulateDispatch(b *testing.B) {
	fx := newWarmDispatchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.c.Simulate(ctx, fx.reqs[i%len(fx.reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmBatchSyncDispatch is the batched path: a full warm frame
// per round-trip; the reported per-op cost is per spec, not per frame.
func BenchmarkWarmBatchSyncDispatch(b *testing.B) {
	fx := newWarmDispatchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(fx.reqs) {
		if _, err := fx.c.SimulateBatchSync(ctx, fx.reqs); err != nil {
			b.Fatal(err)
		}
	}
}

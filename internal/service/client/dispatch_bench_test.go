package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/timegate"
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
	c     *Client
	specs []harness.Spec
}

func newWarmDispatchFixture(tb testing.TB) *warmDispatchFixture {
	tb.Helper()
	srv, err := service.New(service.Options{Warmup: 1_000, Measure: 4_000, Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	tb.Cleanup(func() { hs.Close(); srv.Close() })

	specs := harness.DedupSpecs(harness.Fig4Specs())
	c := New(hs.URL)
	if _, err := c.SimulateBatchSync(context.Background(), specs); err != nil {
		tb.Fatal(err)
	}
	return &warmDispatchFixture{c: c, specs: specs}
}

// simulateOne sends spec i of the fixture as a one-spec batch-sync frame:
// one spec per round trip, the frame a runner's Simulate sends.
func (fx *warmDispatchFixture) simulateOne(ctx context.Context, i int) error {
	_, err := fx.c.SimulateBatchSync(ctx, []harness.Spec{fx.specs[i%len(fx.specs)]})
	return err
}

// timePerCall returns the warm time per one-spec round-trip.
func (fx *warmDispatchFixture) timePerCall(tb testing.TB, calls int) time.Duration {
	tb.Helper()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < calls; i++ {
		if err := fx.simulateOne(ctx, i); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(calls)
}

// timeBatched returns the warm time per spec through batch-sync frames.
func (fx *warmDispatchFixture) timeBatched(tb testing.TB, frames int) time.Duration {
	tb.Helper()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if _, err := fx.c.SimulateBatchSync(ctx, fx.specs); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(frames*len(fx.specs))
}

// TestBatchedDispatchBeatsPerCall is the regression gate for the batched
// wire path: per spec, a full batch-sync frame must dispatch at least 5x
// cheaper than warm one-spec frames, one per call, on the same connection.
// Both sides run on this machine in this process, so the ratio holds on
// slow CI runners where an absolute µs bound would not. Inside `go test
// ./...` other packages share the CPUs, so the sides are timed in
// alternating pairs while the CPUs are free (timegate.Pairs), and the test
// gates the ratio of their median rounds.
func TestBatchedDispatchBeatsPerCall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	fx := newWarmDispatchFixture(t)
	perCallD, batchedD, busy := timegate.Pairs(5,
		func() time.Duration { return fx.timePerCall(t, 200) },
		func() time.Duration { return fx.timeBatched(t, 20) })
	perCall := timegate.Median(perCallD).Seconds() * 1e6
	batched := timegate.Median(batchedD).Seconds() * 1e6
	if batched*5 > perCall {
		t.Errorf("batched dispatch %.2f µs/spec is not 5x cheaper than per-call %.1f µs/call (%.1fx; %d busy CPU checks)\nper-call rounds: %v\nbatched rounds: %v",
			batched, perCall, perCall/batched, busy, perCallD, batchedD)
	} else {
		t.Logf("warm dispatch: %.1f µs/call per-call, %.2f µs/spec batched (%.1fx by median round; %d busy CPU checks)",
			perCall, batched, perCall/batched, busy)
	}
}

// BenchmarkWarmSimulateDispatch is the per-call baseline: one warm spec
// per HTTP round-trip, as a one-spec batch-sync frame.
func BenchmarkWarmSimulateDispatch(b *testing.B) {
	fx := newWarmDispatchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.simulateOne(ctx, i); err != nil {
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
	for i := 0; i < b.N; i += len(fx.specs) {
		if _, err := fx.c.SimulateBatchSync(ctx, fx.specs); err != nil {
			b.Fatal(err)
		}
	}
}

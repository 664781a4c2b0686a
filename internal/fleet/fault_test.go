// Fault injection: a test-only proxy in front of a real shard corrupts or
// withholds its batch-sync answers, and a shard's budget expires while a
// frame waits for a worker slot. Every case must end in records
// byte-identical to a local session's, or in a typed error — never in a
// wrong record.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
)

// fault rewrites one batch-sync answer of the shard behind a faultProxy; r
// is the request it answers.
type fault func(w http.ResponseWriter, r *http.Request, status int, body []byte)

// cutAfter answers the shard's status and declared length but only the first
// n body bytes, then drops the connection: the client reads a short body.
func cutAfter(n int) fault {
	return func(w http.ResponseWriter, r *http.Request, status int, body []byte) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body[:min(n, len(body))])
		panic(http.ErrAbortHandler)
	}
}

// endAfter answers a well-formed response holding only the first n body
// bytes: the frame codec, not the transport, must notice the truncation.
func endAfter(n int) fault {
	return func(w http.ResponseWriter, r *http.Request, status int, body []byte) {
		body = body[:min(n, len(body))]
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	}
}

// bareBadGateway answers what a load balancer in front of a shard would: a
// 502 whose plain-text body is no service envelope.
func bareBadGateway(w http.ResponseWriter, r *http.Request, status int, body []byte) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusBadGateway)
	io.WriteString(w, "upstream connect error or disconnect/reset before headers\n")
}

// stall withholds the shard's answer until the request's context ends —
// the client gave up or its connection closed — and counts each handler
// that got free in released.
func stall(released *atomic.Int64) fault {
	return func(w http.ResponseWriter, r *http.Request, status int, body []byte) {
		<-r.Context().Done()
		released.Add(1)
	}
}

// faultProxy forwards every request to a real shard and applies its fault
// to the first `left` batch-sync answers.
type faultProxy struct {
	target string
	fault  fault
	left   atomic.Int64 // answers still to corrupt
	faults atomic.Int64 // answers the fault rewrote
	hc     http.Client
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.hc.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if r.URL.Path == "/v1/simulate/batch-sync" && p.left.Add(-1) >= 0 {
		p.faults.Add(1)
		p.fault(w, r, resp.StatusCode, body)
		return
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// startFaultyFleet brings up n real shards and a fleet front over them, with
// shard 0 behind a faultProxy applying f to its first `times` batch-sync
// answers (times < 0: every answer).
func startFaultyFleet(t *testing.T, n int, f fault, times int64) (*Runner, *faultProxy) {
	t.Helper()
	urls := make([]string, n)
	var proxy *faultProxy
	for i := range urls {
		srv, err := service.New(service.Options{Warmup: testWarmup, Measure: testMeasure})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls[i] = ts.URL
		if i == 0 {
			proxy = &faultProxy{target: ts.URL, fault: f}
			if times < 0 {
				times = math.MaxInt64
			}
			proxy.left.Store(times)
			pts := httptest.NewServer(proxy)
			t.Cleanup(func() { pts.Close(); proxy.hc.CloseIdleConnections() })
			urls[i] = pts.URL
		}
	}
	front, err := New(Options{Shards: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	return front, proxy
}

// checkFaultOutcome enforces the contract: records delivered before any
// error are the reference's prefix byte for byte, and an error is typed
// (*service.APIError or a context error). It reports whether the batch
// completed.
func checkFaultOutcome(t *testing.T, got []harness.Record, err error, want []harness.Record) bool {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%d records delivered for %d specs", len(got), len(want))
	}
	if a, b := mustJSON(t, got), mustJSON(t, want[:len(got)]); len(got) > 0 && !bytes.Equal(a, b) {
		t.Errorf("a fault produced wrong records:\n got %s\nwant %s", a, b)
	}
	if err == nil {
		if len(got) != len(want) {
			t.Errorf("batch succeeded with %d of %d records", len(got), len(want))
		}
		return true
	}
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) && !harness.IsContextErr(err) {
		t.Errorf("fault ended in an untyped error: %v", err)
	}
	return false
}

// TestFleetFaultInjection drives a batch through a fleet whose shard 0 sits
// behind a fault-injecting proxy. A cut or truncated body is a transport
// failure: the fleet re-routes (or retries its only shard) and the records
// come out byte-identical. A bare 5xx is the frame's own failure: the fleet
// bisects and retries the halves, so a one-off 502 still ends in the
// records, and a persistent one in a typed *APIError.
func TestFleetFaultInjection(t *testing.T) {
	cases := []struct {
		name     string
		shards   int
		fault    fault
		times    int64 // corrupted batch-sync answers; -1: all
		complete bool  // the batch must complete (else: a typed error)
	}{
		{"connection cut at byte 0", 2, cutAfter(0), -1, true},
		{"connection cut mid-record", 2, cutAfter(100), -1, true},
		{"connection cut mid-frame", 2, cutAfter(2000), -1, true},
		{"short body mid-record", 2, endAfter(100), -1, true},
		{"short body mid-frame", 2, endAfter(2000), -1, true},
		{"one cut, one shard", 1, cutAfter(100), 1, true},
		{"one short body, one shard", 1, endAfter(2000), 1, true},
		{"one bare 502, one shard", 1, bareBadGateway, 1, true},
		{"every answer a bare 502", 2, bareBadGateway, -1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, proxy := startFaultyFleet(t, c.shards, c.fault, c.times)
			specs := append(harness.Fig4Specs()[:12], ownedBy(t, f, 0))
			want := refRecords(t, specs)
			var got []harness.Record
			err := batch(context.Background(), f, specs, func(r harness.Record) error {
				got = append(got, r)
				return nil
			})
			completed := checkFaultOutcome(t, got, err, want)
			if completed != c.complete {
				t.Errorf("batch completed = %v (error %v), want %v", completed, err, c.complete)
			}
			if !c.complete {
				var apiErr *service.APIError
				if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
					t.Errorf("persistent bare 502 ended in %v, want the shard's 502 as an *APIError", err)
				}
			}
			if proxy.faults.Load() == 0 {
				t.Error("the proxy injected no fault: no frame reached shard 0")
			}
		})
	}
}

// TestFleetFaultStalledShard: a shard that answers nothing until the client
// gives up. A batch under a caller deadline must end with a context error
// within the deadline plus a small margin, deliver nothing but a
// byte-identical prefix, and leave no proxy handler holding its request.
func TestFleetFaultStalledShard(t *testing.T) {
	const budget, margin = 400 * time.Millisecond, 600 * time.Millisecond
	var released atomic.Int64
	f, proxy := startFaultyFleet(t, 1, stall(&released), -1)
	specs := harness.Fig4Specs()[:3]
	want := refRecords(t, specs)

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	var got []harness.Record
	err := batch(ctx, f, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	})
	took := time.Since(start)
	if checkFaultOutcome(t, got, err, want) || !harness.IsContextErr(err) {
		t.Errorf("a batch behind a stalled shard ended in %v, want a context error", err)
	}
	if took > budget+margin {
		t.Errorf("the batch took %v under a %v deadline", took, budget)
	}
	if proxy.faults.Load() == 0 {
		t.Fatal("the proxy stalled no answer: no frame reached the shard")
	}
	deadline := time.Now().Add(10 * time.Second)
	for released.Load() != proxy.faults.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d stalled proxy handlers still hold their request",
				proxy.faults.Load()-released.Load(), proxy.faults.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetFaultBudgetExpiresWaitingForSlot: a shard with one worker slot
// and a short request budget has its slot held by a long frame sent to it
// directly (a warmup window runs without a cancellation checkpoint, so the
// slot stays held past that frame's own budget). A fleet frame arriving
// behind it waits for the slot until its budget expires, and must end in
// the shard's typed 504, after which the shard is idle again.
func TestFleetFaultBudgetExpiresWaitingForSlot(t *testing.T) {
	srv, err := service.New(service.Options{
		Workers: 1, Warmup: 1_500_000, Measure: 1_000, RequestTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	direct := client.New(ts.URL)
	ctx := context.Background()

	held := make(chan error, 1)
	go func() {
		_, err := direct.SimulateBatchSync(ctx, []harness.Spec{{Kernel: "gzip", Predictor: "none"}})
		held <- err
	}()
	waitForStats(t, direct, "slot held", func(s service.ServerStats) bool { return s.BusyWorkers == 1 })

	f, err := New(Options{Shards: []string{ts.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	answered := make(chan error, 1)
	var got []harness.Record
	go func() {
		answered <- batch(ctx, f, []harness.Spec{{Kernel: "art", Predictor: "none"}}, func(r harness.Record) error {
			got = append(got, r)
			return nil
		})
	}()
	waitForStats(t, direct, "fleet frame queued", func(s service.ServerStats) bool { return s.QueuedTasks == 1 })

	err = <-answered
	checkFaultOutcome(t, got, err, []harness.Record{{}})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != service.CodeTimeout {
		t.Errorf("fleet frame behind a held slot ended in %v, want the shard's 504 %s", err, service.CodeTimeout)
	}
	if err := <-held; !errors.As(err, &apiErr) || apiErr.Code != service.CodeTimeout {
		t.Errorf("the slot holder ended in %v, want 504 %s once its warmup returned", err, service.CodeTimeout)
	}
	waitForStats(t, direct, "shard idle", func(s service.ServerStats) bool {
		return s.BusyWorkers == 0 && s.QueuedTasks == 0
	})
}

// waitForStats polls the shard's /v1/statsz until cond holds.
func waitForStats(t *testing.T, c *client.Client, what string, cond func(service.ServerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
